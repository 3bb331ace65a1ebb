package sim_test

// Statistical equivalence of the analytic pricing engine (DESIGN.md
// §4.7) with the sampled engine (§4.2). The analytic engine accumulates
// the exact expectations the sampled loop estimates by Monte Carlo, so
// for every policy the two must agree within the sampled engine's own
// noise: ≤2 percentage points on the NUMA metrics (LAR, imbalance, PTW
// share) and ≤2% on runtime.
//
// One caveat is asserted explicitly rather than papered over: runtime
// is the MAX over threads of per-thread finish times, and the sampled
// engine's per-thread Monte-Carlo noise spreads that max upward by an
// extreme-value bias of order σ·√(2·ln T) with σ ∝ 1/√steadySamples.
// On cells that saturate a controller (CG.D on machine B, where
// per-access DRAM cost is large and volatile) that bias is 2-5% at the
// default 320 samples and shrinks as samples grow — the analytic
// engine is the K→∞ limit (its per-thread finish-time quartiles match
// the sampled engine's; only the max tail differs). Those cells are
// therefore compared against a variance-reduced sampled reference
// (4× samples) with a 2.5% runtime bound.

import (
	"math"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// eqCell is one reference cell of the equivalence matrix.
type eqCell struct {
	machine, workload, pol string
	// samples overrides steadySamples for both engines (0 = default):
	// the variance-reduced reference for saturated-controller cells.
	samples int
	// runtimeTolPct is the relative runtime tolerance in percent.
	runtimeTolPct float64
	// spec overrides the ByName lookup: the churn/free timeline cells
	// run on inline specs, not suite-registered workloads.
	spec *workloads.Spec
}

// equivalenceMatrix mirrors the worker-count determinism matrix: every
// policy on the UA.B sharing/halo workload (machine A), plus the
// 64-thread hot-page cells on machine B for two representative
// policies.
func equivalenceMatrix() []eqCell {
	var cells []eqCell
	for _, name := range policy.Names() {
		cells = append(cells, eqCell{"A", "UA.B", name, 0, 2.0, nil})
	}
	cells = append(cells,
		eqCell{"B", "CG.D", "THP", 1280, 2.5, nil},
		eqCell{"B", "CG.D", "TridentLP", 1280, 2.5, nil},
	)
	// Event timelines: the analytic engine must track the sampled one
	// through mid-run region growth, shrink/free unmaps and hot-set
	// shifts (census rebuilds keyed on Region.Gen), at the same bounds
	// as the static cells.
	// The free timeline's global event barrier makes runtime a
	// max-over-threads at EVERY boundary, and a thread whose noisy
	// realized progress lands just short of a boundary stalls a whole
	// extra epoch — a discrete bias that only collapses once sampling
	// noise is small (0.2% at 16× samples vs 4% at the default 320 for
	// TridentLP, whose post-shift split/promote decisions feed back into
	// arrival times). That cell gets the variance-reduced reference; the
	// 2%/2pt bounds themselves are unchanged.
	churn, free := churnTimeline(), shiftFreeTimeline()
	cells = append(cells,
		eqCell{"A", churn.Name, "THP", 0, 2.0, &churn},
		eqCell{"A", churn.Name, "CarrefourLP", 0, 2.0, &churn},
		eqCell{"A", free.Name, "TridentLP", 5120, 2.0, &free},
		eqCell{"A", free.Name, "Linux4K", 0, 2.0, &free},
	)
	return cells
}

func runMode(t *testing.T, c eqCell, mode sim.Mode, seed uint64) sim.Result {
	t.Helper()
	machine := topo.MachineA()
	if c.machine == "B" {
		machine = topo.MachineB()
	}
	var spec workloads.Spec
	if c.spec != nil {
		spec = *c.spec
	} else {
		var err error
		spec, err = workloads.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
	}
	pol, err := policy.ByName(c.pol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WorkScale = 0.05
	cfg.Mode = mode
	cfg.Seed = seed
	eng, err := sim.New(machine, spec, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.samples > 0 {
		sim.SetSteadySamples(eng, c.samples)
	}
	res := eng.Run()
	if res.TimedOut {
		t.Fatalf("%s/%s/%s (%v) timed out", c.machine, c.workload, c.pol, mode)
	}
	return res
}

// eqSeeds are the seeds each comparison averages over. Migration-driven
// metrics are realization-noisy in BOTH engines — on UA.B under
// Carrefour-2M the sampled engine's own imbalance spans 2-11% across
// seeds, because which pages the daemon migrates depends on individual
// sample draws — so single-seed metric comparisons would test that
// noise, not the models. Expectations are what the analytic engine
// promises to match; seed averaging is how a test observes them.
var eqSeeds = []uint64{1, 2, 3, 4, 5}

// meanMetrics averages the compared metrics over seeds.
type meanMetrics struct {
	runtime, lar, imb, ptw float64
	accesses               float64
	ibs                    float64
}

func average(t *testing.T, c eqCell, mode sim.Mode) meanMetrics {
	t.Helper()
	var m meanMetrics
	for _, seed := range eqSeeds {
		r := runMode(t, c, mode, seed)
		m.runtime += r.RuntimeSeconds
		m.lar += r.LARPct
		m.imb += r.ImbalancePct
		m.ptw += r.PTWSharePct
		m.accesses += r.Counters.Accesses
		m.ibs += float64(r.IBSSamplesTaken)
	}
	n := float64(len(eqSeeds))
	m.runtime /= n
	m.lar /= n
	m.imb /= n
	m.ptw /= n
	return m
}

// TestAnalyticMatchesSampled is the table-driven equivalence suite the
// analytic mode ships under: every policy, both machines, seeded,
// tolerance-based.
func TestAnalyticMatchesSampled(t *testing.T) {
	for _, c := range equivalenceMatrix() {
		c := c
		t.Run(c.machine+"/"+c.workload+"/"+c.pol, func(t *testing.T) {
			s := average(t, c, sim.ModeSampled)
			a := average(t, c, sim.ModeAnalytic)
			if rel := math.Abs(a.runtime/s.runtime-1) * 100; rel > c.runtimeTolPct {
				t.Errorf("runtime: sampled %.4fs analytic %.4fs (%.2f%% apart, tol %.1f%%)",
					s.runtime, a.runtime, rel, c.runtimeTolPct)
			}
			points := []struct {
				name         string
				samp, analyt float64
			}{
				{"LAR", s.lar, a.lar},
				{"imbalance", s.imb, a.imb},
				{"PTW-share", s.ptw, a.ptw},
			}
			for _, p := range points {
				if d := math.Abs(p.analyt - p.samp); d > 2.0 {
					t.Errorf("%s: sampled %.2f%% analytic %.2f%% (%.2f points apart, tol 2)",
						p.name, p.samp, p.analyt, d)
				}
			}
			// The scaled access totals must agree almost exactly: both
			// engines drive each thread through the same WorkPerThread.
			if rel := math.Abs(a.accesses/s.accesses - 1); rel > 1e-6 {
				t.Errorf("total accesses differ: %.6e vs %.6e", s.accesses, a.accesses)
			}
			// The thinned IBS stream must deliver the sample volume real
			// hardware would (policies calibrate against it).
			if s.ibs > 0 {
				if ratio := a.ibs / s.ibs; ratio < 0.85 || ratio > 1.15 {
					t.Errorf("IBS volume: sampled %.0f analytic %.0f (ratio %.2f)", s.ibs, a.ibs, ratio)
				}
			}
		})
	}
}

// TestAnalyticDeterministic pins that the analytic mode, like the
// sampled one, is a pure function of its seed.
func TestAnalyticDeterministic(t *testing.T) {
	c := eqCell{"A", "UA.B", "CarrefourLP", 0, 0, nil}
	a := runMode(t, c, sim.ModeAnalytic, 1)
	b := runMode(t, c, sim.ModeAnalytic, 1)
	if a != b {
		t.Fatalf("analytic runs with equal seeds differ:\n%+v\nvs\n%+v", a, b)
	}
}
