package sim

// Zero-allocation invariant of the allocation phase (DESIGN.md §4.11).
// The batched alloc path classifies whole first-touch spans and commits
// them through run-granular vm/mem operations; under a HugeTLB1G-style
// policy every region is giant-mapped before the first touch, so each
// span classifies as a hit run and the phase must run entirely on warm
// scratch — no heap allocation per epoch. 4K/2M faulting policies
// genuinely allocate (buddy bitmaps and live lists grow with the
// footprint), which is why the giant-mapped pipeline is the one that
// can pin a hard zero.

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// giant1G reserves 1 GB pages for every region up front, mirroring the
// policy package's HugeTLB1G pipeline (hugetlbfs semantics, §4.4). A
// local stub: package sim cannot import internal/policy.
type giant1G struct{}

func (giant1G) Name() string { return "HugeTLB1G" }
func (giant1G) Setup(env *Env) {
	node := env.Machine.NodeOf(0)
	for _, r := range env.Space.Regions() {
		for head := 0; head < r.NumChunks(); head += vm.ChunksPerGiant {
			if err := r.MapGiant(head, node); err != nil {
				mapped := false
				for n := 0; n < env.Machine.Nodes; n++ {
					if err := r.MapGiant(head, topo.NodeID(n)); err == nil {
						mapped = true
						break
					}
				}
				if !mapped {
					panic("giant1G: cannot reserve 1G page")
				}
			}
		}
	}
}
func (giant1G) Tick(*Env, float64) float64 { return 0 }

// TestAllocPhaseZeroAllocSteadyState pins the allocation phase's
// zero-allocation invariant: once per-thread scratch is warm, advancing
// the allocation rounds of an epoch whose first-touches all hit
// giant-mapped chunks performs no heap allocation.
func TestAllocPhaseZeroAllocSteadyState(t *testing.T) {
	spec, err := workloads.ByName("CG.D")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WorkScale = 0.5
	cfg.Mode = ModeAnalytic
	// Giant-mapped first touches are all hits, so the workload's alloc
	// phase completes in very few epochs at the default per-epoch touch
	// budget; throttle it so the measured epochs still fault live.
	eng, err := New(topo.MachineA(), spec, giant1G{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.maxAlloc = 500
	epochCycles := epochSeconds * eng.machine.FreqHz
	// Warm-up: two full epochs grow the sample scratch and round
	// bookkeeping to steady capacity.
	eng.runEpoch(0, epochCycles)
	eng.runEpoch(1, epochCycles)
	if eng.wl.AllocAllDone() {
		t.Fatal("allocation finished during warm-up; raise WorkScale so the measurement sees live faulting")
	}
	epoch := 2
	allocs := testing.AllocsPerRun(5, func() {
		for i := range eng.budgets {
			eng.budgets[i] = epochCycles
		}
		eng.runAllocRounds(epoch, eng.budgets)
		epoch++
	})
	if eng.wl.AllocAllDone() {
		t.Fatal("allocation finished during measurement; raise WorkScale so every measured round faults")
	}
	if allocs != 0 {
		t.Fatalf("allocation phase allocates %.1f times per epoch, want 0", allocs)
	}
}
