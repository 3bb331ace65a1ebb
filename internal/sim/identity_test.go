package sim_test

// The engine's one identity harness (DESIGN.md §4.6, §4.10–4.11). Every
// optimization in the engine — parallel pricing, the incremental
// analytic memos and quiescent epochs, the batched allocation path, and
// skipping due-gated policy hooks — is a pure evaluation-order change,
// so for every cell the optimized engine at 1, 2 and NumCPU workers
// must produce a sim.Result EXACTLY equal (Result is comparable;
// compared with ==) to the Config.Reference run at 1 worker. A
// tolerance would hide the drift the harness exists to catch: a missed
// memo invalidation, a gated hook that hid real work, a reordered float
// add. External test package: the policy registry imports sim.

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// identityCell is one cell of the identity matrix.
type identityCell struct {
	machine, workload, pol string
	mode                   sim.Mode
	spec                   *workloads.Spec // overrides ByName (event-timeline cells)
	workScale              float64
	// wantQuiet asserts the run exercises the quiescent fast path, so
	// the identity check on that cell is non-vacuous for deferral.
	wantQuiet bool
}

func (c identityCell) name() string {
	return c.machine + "/" + c.workload + "/" + c.pol + "/" + c.mode.String()
}

// The identity matrix is split by the surface each part guards, one
// test function per part so every cell keeps its historic test id; all
// of them run the same check (checkIdentity), and their union is the
// harness's matrix.

// workerCountCells covers every policy policy.Names() knows on UA.B
// (sharing, halos, multi-region structure, so every daemon and every
// due-gated hook has something to act on) in both modes, so a new policy
// cannot ship without the guarantee; the 64-thread machine B on CG.D for
// the hot-page split policies; and the growth/churn and shift/free event
// timelines in both modes.
func workerCountCells() []identityCell {
	var cells []identityCell
	for _, pol := range policy.Names() {
		cells = append(cells, bothModes(identityCell{machine: "A", workload: "UA.B", pol: pol, workScale: 0.05})...)
	}
	for _, pol := range []string{"THP", "TridentLP"} {
		cells = append(cells, bothModes(identityCell{machine: "B", workload: "CG.D", pol: pol, workScale: 0.05})...)
	}
	churn, free := churnTimeline(), shiftFreeTimeline()
	for _, spec := range []*workloads.Spec{&churn, &free} {
		for _, pol := range []string{"THP", "CarrefourLP", "TridentLP"} {
			cells = append(cells, bothModes(identityCell{machine: "A", workload: spec.Name, pol: pol, spec: spec, workScale: 0.05})...)
		}
	}
	return cells
}

// incrementalCells covers the analytic memos' invalidation surfaces: a
// hook-free policy, a daemon that bumps Region.Gen mid-run, 1 GB pages on
// machine B, three timelines, and two full-scale cells whose long steady
// stretches let the latency EWMA reach its float fixed point, so
// quiescent epochs occur — one of them THP, whose khugepaged hook is
// due-gated on pending promotions.
func incrementalCells() []identityCell {
	churn, free, weights := churnTimeline(), shiftFreeTimeline(), weightOnlyTimeline()
	a := sim.ModeAnalytic
	return []identityCell{
		{machine: "A", workload: "UA.B", pol: "Linux4K", mode: a, workScale: 0.05},
		{machine: "A", workload: "UA.B", pol: "CarrefourLP", mode: a, workScale: 0.05},
		{machine: "B", workload: "CG.D", pol: "HugeTLB1G", mode: a, workScale: 0.05},
		{machine: "B", workload: "CG.D", pol: "PTBaseline", mode: a, workScale: 1.0, wantQuiet: true},
		{machine: "A", workload: "SSCA.20", pol: "THP", mode: a, workScale: 1.0, wantQuiet: true},
		{machine: "A", workload: churn.Name, pol: "THP", mode: a, spec: &churn, workScale: 0.05},
		{machine: "A", workload: free.Name, pol: "TridentLP", mode: a, spec: &free, workScale: 0.05},
		{machine: "A", workload: weights.Name, pol: "Linux4K", mode: a, spec: &weights, workScale: 0.05},
	}
}

// weightOnlyTimeline frees a weight-0 lazy region that was never
// faulted in while the live regions' weights shift. The free releases
// nothing, so no Region.Gen moves: only the phase-table length tells
// the analytic engine that the TLB assessment (a function of the
// weights) is stale.
func weightOnlyTimeline() workloads.Spec {
	spec := shiftFreeTimeline()
	spec.Name = "weights.eq"
	spec.Regions = append(spec.Regions, workloads.RegionSpec{Name: "spare", Bytes: 16 << 20, Loc: cache.RandomUniform, SkipInit: true})
	spec.Events = []workloads.EventSpec{{AtWorkFrac: 0.40, FreeRegion: "spare", Weights: []float64{0.15, 0.85, 0}}}
	return spec
}

// allocCells covers every run kind of the batched allocation path: 4 KB
// fault runs (Linux4K), 2 MB faults plus post-fault hit runs (THP), 1 GB
// premapped hit runs (HugeTLB1G), a daemon that migrates and splits
// mid-alloc (CarrefourLP), a churn timeline under capacity pressure, and
// sampled-mode runs on SSCA.20 and SPECjbb.
func allocCells() []identityCell {
	churn := churnTimeline()
	a, s := sim.ModeAnalytic, sim.ModeSampled
	return []identityCell{
		{machine: "A", workload: "UA.B", pol: "Linux4K", mode: a, workScale: 0.05},
		{machine: "A", workload: "UA.B", pol: "THP", mode: a, workScale: 0.05},
		{machine: "B", workload: "CG.D", pol: "HugeTLB1G", mode: a, workScale: 0.05},
		{machine: "B", workload: "CG.D", pol: "CarrefourLP", mode: a, workScale: 0.05},
		{machine: "A", workload: churn.Name, pol: "THP", mode: a, spec: &churn, workScale: 0.05},
		{machine: "A", workload: "SSCA.20", pol: "Linux4K", mode: s, workScale: 0.05},
		{machine: "B", workload: "SPECjbb", pol: "THP", mode: s, workScale: 0.05},
	}
}

func bothModes(c identityCell) []identityCell {
	s, a := c, c
	s.mode, a.mode = sim.ModeSampled, sim.ModeAnalytic
	return []identityCell{s, a}
}

// runIdentity runs one cell and returns the result plus how many
// quiescent epochs the engine saw.
func runIdentity(t *testing.T, c identityCell, workers int, reference bool) (sim.Result, int) {
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
	cfg.WorkScale = c.workScale
	cfg.Mode = c.mode
	cfg.Reference = reference
	eng, err := sim.New(machine, spec, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(eng, workers)
	res := eng.Run()
	if res.TimedOut {
		t.Fatalf("%s timed out", c.name())
	}
	return res, eng.QuietEpochs()
}

// checkIdentity is the harness: the optimized engine at 1, 2 and
// NumCPU workers equals the single-worker Reference run exactly, and on
// full-scale cells the Reference run is itself worker-count invariant.
// Config.Hash relies on this to exclude Pool and Reference from cell
// addresses.
func checkIdentity(t *testing.T, c identityCell) {
	t.Helper()
	if c.spec != nil && len(c.spec.Events) == 0 {
		t.Fatalf("timeline %s declares no events; the cell would not exercise invalidation", c.workload)
	}
	ref, _ := runIdentity(t, c, 1, true)
	quietSeen := 0
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		res, quiet := runIdentity(t, c, workers, false)
		if res != ref {
			t.Errorf("%s: optimized result at %d workers differs from the reference:\n opt: %+v\n ref: %+v", c.name(), workers, res, ref)
		}
		quietSeen = max(quietSeen, quiet)
	}
	if c.wantQuiet && quietSeen == 0 {
		t.Errorf("%s: cell expected to exercise the quiescent path saw 0 quiet epochs", c.name())
	}
	if c.workScale == 1.0 {
		if res8, _ := runIdentity(t, c, 8, true); res8 != ref {
			t.Errorf("%s: reference result differs between 8 and 1 workers:\n 8w: %+v\n 1w: %+v", c.name(), res8, ref)
		}
	}
}

// runCells runs checkIdentity on every cell as a parallel subtest.
func runCells(t *testing.T, cells []identityCell, name func(identityCell) string) {
	for _, c := range cells {
		c := c
		t.Run(name(c), func(t *testing.T) {
			t.Parallel()
			checkIdentity(t, c)
		})
	}
}

// TestResultIdenticalAcrossWorkerCounts also guards the matrix itself:
// every policy must appear in both modes across the harness, and every
// policy must be a Pipeline, since Reference forces gated hooks only
// through Pipeline.Tick.
func TestResultIdenticalAcrossWorkerCounts(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range slices.Concat(workerCountCells(), incrementalCells(), allocCells()) {
		covered[c.pol+"/"+c.mode.String()] = true
	}
	for _, name := range policy.Names() {
		pol, err := policy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pol.(*policy.Pipeline); !ok {
			t.Errorf("policy %s is not a Pipeline; Reference cannot force its gated hooks", name)
		}
		for _, mode := range []sim.Mode{sim.ModeSampled, sim.ModeAnalytic} {
			if !covered[name+"/"+mode.String()] {
				t.Errorf("policy %s is not in the matrix in %s mode", name, mode)
			}
		}
	}
	runCells(t, workerCountCells(), identityCell.name)
}

// TestIncrementalMatchesFullRecompute runs the analytic memo cells.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	runCells(t, incrementalCells(), func(c identityCell) string { return c.machine + "/" + c.workload + "/" + c.pol })
}

// TestIncrementalCacheInvalidation drives the memo invalidation surfaces
// through the two event timelines (growth, churn remaps, hot-set shifts,
// shrink/free unmaps) under a hook-free and a daemon-heavy policy.
func TestIncrementalCacheInvalidation(t *testing.T) {
	churn, free := churnTimeline(), shiftFreeTimeline()
	for _, spec := range []*workloads.Spec{&churn, &free} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, pol := range []string{"Linux4K", "CarrefourLP"} {
				checkIdentity(t, identityCell{machine: "A", workload: spec.Name, pol: pol, mode: sim.ModeAnalytic, spec: spec, workScale: 0.05})
			}
		})
	}
}

// TestBatchedAllocMatchesPerPage runs the batched allocation cells.
func TestBatchedAllocMatchesPerPage(t *testing.T) {
	runCells(t, allocCells(), identityCell.name)
}
