package sim

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/workloads"
)

// pt4K is Linux4K plus NUMA-aware page-table pricing (4 KB pages keep
// the walk rate high, so the pricing path is well exercised).
type pt4K struct{ replicated bool }

func (pt4K) Name() string { return "pt4K" }
func (p pt4K) Setup(env *Env) {
	env.PageTables = &PTConfig{Replicated: p.replicated}
	if p.replicated {
		env.Space.PTReplicas = env.Machine.Nodes
	}
}
func (pt4K) Tick(*Env, float64) float64        { return 0 }
func (pt4K) NextDaemonDue(now float64) float64 { return now }

// TestPTPricingChargesRemoteWalks: under location-aware pricing, walks
// to first-touch page tables on another node cost extra cycles, so the
// run must be strictly slower than the location-blind baseline; with
// replicated page tables every walk is local again, so the surcharge
// must vanish (leaving only the fault-path replica-update cost).
func TestPTPricingChargesRemoteWalks(t *testing.T) {
	base := run(t, linux4K{}, 1)
	remote := run(t, pt4K{}, 1)
	repl := run(t, pt4K{replicated: true}, 1)
	if remote.RuntimeSeconds <= base.RuntimeSeconds {
		t.Fatalf("remote page tables should slow the run: %.4fs vs %.4fs",
			remote.RuntimeSeconds, base.RuntimeSeconds)
	}
	if repl.RuntimeSeconds >= remote.RuntimeSeconds {
		t.Fatalf("replicated page tables should beat remote ones: %.4fs vs %.4fs",
			repl.RuntimeSeconds, remote.RuntimeSeconds)
	}
	// Walk traffic lands on the controllers only under PT pricing, so
	// the imbalance pictures must differ from the baseline.
	if remote.Counters == base.Counters && remote.ImbalancePct == base.ImbalancePct {
		t.Fatal("PT pricing left every counter untouched")
	}
}

// TestSteadyEpochZeroAllocPT extends the zero-allocation invariant to
// the page-table pricing path: the extra per-walk lookups and the
// walk-traffic scratch must not allocate in the hot loop.
func TestSteadyEpochZeroAllocPT(t *testing.T) {
	spec, err := workloads.ByName("CG.D")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WorkScale = 0.05
	eng, err := New(topo.MachineB(), spec, pt4K{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assess, epochCycles := primeSteady(t, eng)
	allocs := testing.AllocsPerRun(10, func() {
		priceOneEpoch(eng, assess, epochCycles)
	})
	if allocs != 0 {
		t.Fatalf("PT-priced steady loop allocates %.1f times per epoch, want 0", allocs)
	}
}
