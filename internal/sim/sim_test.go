package sim

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/perf"
	"repro/internal/thp"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// tinySpec is a fast two-region workload for engine tests.
func tinySpec() workloads.Spec {
	return workloads.Spec{
		Name: "tiny",
		Regions: []workloads.RegionSpec{
			{Name: "priv", Bytes: 64 << 20, Weight: 0.6, Loc: cache.RandomUniform,
				Sharing: workloads.PrivateBlocked, Init: workloads.InitOwner, InitTouchWeight: 64},
			{Name: "shared", Bytes: 32 << 20, Weight: 0.4, Loc: cache.RandomUniform,
				DRAMFloor: 0.3, Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 64},
		},
		WorkPerThread:        2e6,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.6,
	}
}

// linux4K is a minimal policy: no THP, no daemons.
type linux4K struct{}

func (linux4K) Name() string                      { return "Linux4K" }
func (linux4K) Setup(*Env)                        {}
func (linux4K) Tick(*Env, float64) float64        { return 0 }
func (linux4K) NextDaemonDue(now float64) float64 { return now }

// thpOn attaches an enabled THP subsystem.
type thpOn struct{ t *thp.THP }

func (*thpOn) Name() string { return "THP" }
func (p *thpOn) Setup(env *Env) {
	p.t = thp.New(env.Space, true, env.Costs)
	env.THP = p.t
}
func (p *thpOn) Tick(env *Env, now float64) float64 { return p.t.RunPromotionPass() }
func (*thpOn) NextDaemonDue(now float64) float64    { return now }

func run(t *testing.T, policy OS, seed uint64) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	eng, err := New(topo.MachineA(), tinySpec(), policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.TimedOut {
		t.Fatal("tiny workload timed out")
	}
	return res
}

func TestRunCompletes(t *testing.T) {
	res := run(t, linux4K{}, 1)
	if res.RuntimeSeconds <= 0 || res.Epochs <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Counters.Accesses <= 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, linux4K{}, 7)
	b := run(t, linux4K{}, 7)
	if a.RuntimeSeconds != b.RuntimeSeconds {
		t.Fatalf("runtimes differ: %v vs %v", a.RuntimeSeconds, b.RuntimeSeconds)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.LARPct != b.LARPct || a.ImbalancePct != b.ImbalancePct {
		t.Fatal("metrics differ across identical runs")
	}
}

func TestSeedsChangeOutcomeSlightly(t *testing.T) {
	a := run(t, linux4K{}, 1)
	b := run(t, linux4K{}, 2)
	// Different seeds must not change the qualitative picture.
	rel := math.Abs(a.RuntimeSeconds-b.RuntimeSeconds) / a.RuntimeSeconds
	if rel > 0.1 {
		t.Fatalf("seed changed runtime by %.1f%%", rel*100)
	}
}

func TestTHPTakesFewerFaults(t *testing.T) {
	lin := run(t, linux4K{}, 1)
	huge := run(t, &thpOn{}, 1)
	if lin.FaultCounts[1] != 0 {
		t.Fatal("4K run took 2M faults")
	}
	if huge.FaultCounts[1] == 0 {
		t.Fatal("THP run took no 2M faults")
	}
	if huge.FaultCounts[0] >= lin.FaultCounts[0] {
		t.Fatalf("THP should take far fewer 4K faults: %d vs %d",
			huge.FaultCounts[0], lin.FaultCounts[0])
	}
	// Footprint: 96 MB = 24576 4K pages or 48 2M chunks.
	if lin.FaultCounts[0] != 24576 {
		t.Fatalf("4K faults = %d, want 24576", lin.FaultCounts[0])
	}
	if huge.FaultCounts[1] != 48 {
		t.Fatalf("2M faults = %d, want 48", huge.FaultCounts[1])
	}
}

func TestTHPReducesTranslationPressure(t *testing.T) {
	lin := run(t, linux4K{}, 1)
	huge := run(t, &thpOn{}, 1)
	if huge.Counters.TLBMisses >= lin.Counters.TLBMisses {
		t.Fatalf("THP should reduce TLB misses: %v vs %v",
			huge.Counters.TLBMisses, lin.Counters.TLBMisses)
	}
	if huge.PTWSharePct >= lin.PTWSharePct {
		t.Fatalf("THP should reduce the PTW share: %v vs %v",
			huge.PTWSharePct, lin.PTWSharePct)
	}
}

func TestWindowMetrics(t *testing.T) {
	from := Snapshot{}
	to := Snapshot{
		Counters: perf.Counters{
			Accesses: 100, LocalDRAM: 30, RemoteDRAM: 10,
			DataL2Misses: 50, PTWL2Misses: 10,
		},
		FaultCycles:  []float64{10, 90, 20},
		CtrlRequests: []float64{40, 0, 0, 0},
		Cycles:       1000,
	}
	w := new(WindowScratch).Window(from, to)
	if w.LARPct != 75 {
		t.Fatalf("LAR = %v", w.LARPct)
	}
	if math.Abs(w.PTWSharePct-100*10.0/60.0) > 1e-9 {
		t.Fatalf("PTW share = %v", w.PTWSharePct)
	}
	if w.MaxFaultSharePct != 9 {
		t.Fatalf("fault share = %v", w.MaxFaultSharePct)
	}
	if math.Abs(w.ImbalancePct-173.205) > 0.01 {
		t.Fatalf("imbalance = %v", w.ImbalancePct)
	}
	if w.DRAMAccesses != 40 {
		t.Fatalf("DRAM accesses = %v", w.DRAMAccesses)
	}
}

func TestSnapshotIncludesChurnFaults(t *testing.T) {
	cfg := DefaultConfig()
	spec := tinySpec()
	spec.Regions[1].ChurnPer1K = 2
	spec.Regions[1].ChurnTHPFrac = 0.5
	eng, err := New(topo.MachineA(), spec, linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.MaxCoreFaultSeconds <= 0 {
		t.Fatal("churn should produce fault time")
	}
	snap := eng.Env().Snapshot()
	var sum float64
	for _, f := range snap.FaultCycles {
		sum += f
	}
	if sum <= 0 {
		t.Fatal("snapshot misses churn fault cycles")
	}
}

func TestAllocBarrier(t *testing.T) {
	// With a master-initialized region, no steady progress may happen
	// until thread 0 finishes faulting everything in.
	spec := tinySpec()
	spec.Regions[1].Init = workloads.InitMaster
	cfg := DefaultConfig()
	eng, err := New(topo.MachineA(), spec, linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	// All of the shared region must be on node 0 (first-touch by master).
	onNode0 := true
	eng.Workload().Regions[1].VM.ForEachPage(func(p vm.PageAccess) {
		if p.Node != 0 {
			onNode0 = false
		}
	})
	if !onNode0 {
		t.Fatal("master-initialized region leaked off node 0: barrier broken")
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
}

func TestWorkScaleShortensRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.25
	eng, err := New(topo.MachineA(), tinySpec(), linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := eng.Run()
	full := run(t, linux4K{}, 1)
	if short.RuntimeSeconds >= full.RuntimeSeconds {
		t.Fatalf("scaled run (%v) not shorter than full (%v)", short.RuntimeSeconds, full.RuntimeSeconds)
	}
}

func TestFileBackedRegionStays4KUnderTHP(t *testing.T) {
	spec := tinySpec()
	spec.Regions[1].FileBacked = true
	cfg := DefaultConfig()
	eng, err := New(topo.MachineA(), spec, &thpOn{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	n4, _, _ := eng.Workload().Regions[1].VM.MappedPages()
	if n4 != 32<<20/4096 {
		t.Fatalf("file-backed region has %d 4K pages, want all %d", n4, 32<<20/4096)
	}
}

func TestEngineOnMachineB(t *testing.T) {
	cfg := DefaultConfig()
	eng, err := New(topo.MachineB(), tinySpec(), linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.TimedOut || res.Machine != "B" {
		t.Fatalf("machine B run failed: %+v", res)
	}
}

func TestPhaseChangeShiftsTraffic(t *testing.T) {
	// Phase 0 hammers the private region; phase 1 shifts to the shared
	// one. The run must complete, and the shared region must see most of
	// its accesses only after the boundary (its ground-truth counters are
	// reset at the barrier, so the split is visible in page accesses).
	spec := tinySpec()
	spec.Phases = []workloads.PhaseSpec{{AtWorkFrac: 0.5, Weights: []float64{0.1, 0.9}}}
	cfg := DefaultConfig()
	eng, err := New(topo.MachineA(), spec, linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.TimedOut {
		t.Fatal("phased run timed out")
	}
	// Compare with the phase-free run: shifting weight to the shared
	// region must change the access mix (shared region gets ~50% overall
	// instead of 40%).
	var phasedShared, base uint64
	eng.Workload().Regions[1].VM.ForEachPage(func(p vm.PageAccess) { phasedShared += p.Accesses })
	eng2, err := New(topo.MachineA(), tinySpec(), linux4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Run().TimedOut {
		t.Fatal("baseline timed out")
	}
	eng2.Workload().Regions[1].VM.ForEachPage(func(p vm.PageAccess) { base += p.Accesses })
	if phasedShared <= base {
		t.Fatalf("phase shift did not raise shared-region traffic: %d vs %d", phasedShared, base)
	}
}
