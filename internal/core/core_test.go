package core

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/thp"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// harness builds a live environment with 2 MB pages and an LP daemon.
type harness struct {
	env *sim.Env
	r   *vm.Region
	lp  *LP
	thp *thp.THP
	tel sim.Telemetry
}

type testPolicy struct{ h *harness }

func (p *testPolicy) Name() string { return "lp-test" }
func (p *testPolicy) Setup(env *sim.Env) {
	p.h.thp = thp.New(env.Space, true, env.Costs)
	env.THP = p.h.thp
}
func (p *testPolicy) Tick(*sim.Env, float64) float64    { return 0 }
func (p *testPolicy) NextDaemonDue(now float64) float64 { return now }

func newHarness(t *testing.T) *harness {
	t.Helper()
	spec := workloads.Spec{
		Name: "lptest",
		Regions: []workloads.RegionSpec{
			{Name: "data", Bytes: 64 << 20, Weight: 1, Loc: cache.RandomUniform,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 32},
		},
		WorkPerThread:        1e5,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.5,
	}
	h := &harness{}
	eng, err := sim.New(topo.MachineA(), spec, &testPolicy{h}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.env = eng.Env()
	h.r = h.env.Space.Regions()[0]
	for ci := 0; ci < h.r.NumChunks(); ci++ {
		h.r.Access(topo.CoreID(ci%24), ci%24, uint64(ci)*uint64(mem.Size2M))
	}
	h.lp = New(carrefour.New())
	h.lp.Bind(h.thp)
	return h
}

func s2m(r *vm.Region, chunk, thread int, node topo.NodeID, off uint64) ibs.Sample {
	return ibs.Sample{
		Page:   vm.PageID{Region: r, Chunk: chunk, Sub: -1},
		Off:    uint64(chunk)*uint64(mem.Size2M) + off,
		Thread: int32(thread), Core: int32(thread),
		AccessorNode: uint8(node), HomeNode: uint8(r.ChunkInfo(chunk).Node),
		DRAM: true, Weight: 1,
	}
}

func (h *harness) feed(samples []ibs.Sample) {
	for _, s := range samples {
		h.env.Sampler.Record(s)
	}
}

// tick runs one LP interval on the telemetry gathered since the last
// one and returns its overhead cycles.
func (h *harness) tick() float64 {
	return h.lp.TickWith(h.env, h.tel.Gather(h.env))
}

func TestHotPageSplitAndInterleave(t *testing.T) {
	h := newHarness(t)
	// Chunk 0 receives ~67% of sampled accesses, all to the same 4 KB
	// word from every node (a true hot page: splitting alone cannot
	// localize it, so the split-all-shared path must stay off). The cold
	// chunks are single-node, so plain placement promises a big LAR gain
	// (line 10 ⇒ SPLIT_PAGES=false) and only the hot-page rule (line 19)
	// may split chunk 0.
	var samples []ibs.Sample
	for i := 0; i < 80; i++ {
		samples = append(samples, s2m(h.r, 0, i%24, topo.NodeID(i%4), 0))
	}
	for i := 0; i < 40; i++ {
		ci := 1 + i%20
		samples = append(samples, s2m(h.r, ci, i%24, topo.NodeID(1+ci%3), uint64(i)*4096))
	}
	h.feed(samples)
	h.tick()
	if info := h.r.ChunkInfo(0); info.State != vm.Mapped4K {
		t.Fatalf("hot chunk not split: %v", info.State)
	}
	_, hot, _ := h.lp.Stats()
	if hot != 1 {
		t.Fatalf("hot splits = %d", hot)
	}
	// The constituents must be interleaved across all nodes.
	nodes := map[topo.NodeID]bool{}
	for sub := 0; sub < vm.SubsPerChunk; sub++ {
		if n, ok := h.r.SubNode(0, sub); ok {
			nodes[n] = true
		}
	}
	if len(nodes) != 4 {
		t.Fatalf("hot page interleaved over %d nodes, want 4", len(nodes))
	}
	// Splitting hot pages must stop khugepaged from undoing the work.
	if h.thp.PromoteEnabled() {
		t.Fatal("promotion still enabled after hot split")
	}
}

func TestSharedSplitWhenPlacementCannotHelp(t *testing.T) {
	h := newHarness(t)
	// Every chunk is accessed by two threads on different nodes at
	// distinct 4 KB offsets: placement cannot improve LAR at 2 MB
	// granularity, but the 4 KB view looks perfectly separable.
	var samples []ibs.Sample
	for ci := 0; ci < 32; ci++ {
		samples = append(samples,
			s2m(h.r, ci, 0, 0, 0),
			s2m(h.r, ci, 6, 1, 4096),
			s2m(h.r, ci, 0, 0, 0),
			s2m(h.r, ci, 6, 1, 4096),
		)
	}
	h.feed(samples)
	h.tick()
	cur, car, split := h.lp.LastEstimates()
	if car-cur > carrefourGainPct {
		t.Fatalf("carrefour-only estimate should not promise enough: cur %v car %v", cur, car)
	}
	if split-cur <= splitGainPct {
		t.Fatalf("split estimate should promise a gain: cur %v split %v", cur, split)
	}
	splits, _, _ := h.lp.Stats()
	if splits == 0 {
		t.Fatal("no shared pages were split")
	}
	if h.thp.AllocEnabled() {
		t.Fatal("2M allocation should be disabled after splitting (line 17)")
	}
}

func TestConservativeReenablesOnTLBPressure(t *testing.T) {
	h := newHarness(t)
	h.thp.SetAllocEnabled(false)
	h.thp.SetPromoteEnabled(false)
	// Manufacture TLB pressure by lowering the threshold below any
	// window's PTW share (which is never negative), so the conservative
	// decision fires on the next interval.
	h.lp.tlbShare = -1 // any pressure re-enables
	h.tick()
	if !h.thp.AllocEnabled() || !h.thp.PromoteEnabled() {
		t.Fatal("conservative component did not re-enable large pages")
	}
	_, _, re := h.lp.Stats()
	if re == 0 {
		t.Fatal("re-enable not counted")
	}
}

func TestConservativeReenablesOnFaultPressure(t *testing.T) {
	// Line 7: a window in which some core spent more than 5% of its time
	// in the fault handler re-enables 2 MB allocation (but not
	// promotion); 4.5% does nothing. 5.5% sits between the paper's 5% and
	// any threshold a point higher, and both windows stay under line 4's
	// TLB threshold so only the fault rule can fire.
	for _, tc := range []struct {
		share  float64
		want   bool
		wantRe uint64
	}{{4.5, false, 0}, {5.5, true, 1}} {
		h := newHarness(t)
		h.lp.Reactive = false
		h.thp.SetAllocEnabled(false)
		h.thp.SetPromoteEnabled(false)
		w := sim.WindowMetrics{PTWSharePct: tlbSharePct / 2, MaxFaultSharePct: tc.share}
		h.lp.TickWith(h.env, sim.View{Window: w})
		_, _, re := h.lp.Stats()
		if h.thp.AllocEnabled() != tc.want || re != tc.wantRe {
			t.Fatalf("fault share %v%%: allocation enabled %v after %d re-enables, want %v",
				tc.share, h.thp.AllocEnabled(), re, tc.want)
		}
		if h.thp.PromoteEnabled() {
			t.Fatalf("fault share %v%%: line 7 must not re-enable promotion", tc.share)
		}
	}
}

func TestReactiveDisabledComponentDoesNothing(t *testing.T) {
	h := newHarness(t)
	h.lp.Reactive = false
	var samples []ibs.Sample
	for i := 0; i < 80; i++ {
		samples = append(samples, s2m(h.r, 0, i%24, topo.NodeID(i%4), uint64(i)*4096))
	}
	h.feed(samples)
	h.tick()
	if info := h.r.ChunkInfo(0); info.State != vm.Mapped2M {
		t.Fatal("reactive-off configuration split a page")
	}
}

func TestEstimateMisestimationUnderSparseSamples(t *testing.T) {
	h := newHarness(t)
	// A truly node-shared chunk sampled once per 4 KB sub-page: at 2 MB
	// granularity it is clearly multi-node; at 4 KB granularity every
	// sub-group is single-node, so the split estimate is inflated — the
	// paper's SSCA misestimation (§4.1).
	var samples []ibs.Sample
	for i := 0; i < 64; i++ {
		samples = append(samples, s2m(h.r, 3, i%24, topo.NodeID(i%4), uint64(i)*4096))
	}
	h.feed(samples)
	h.tick()
	_, car, split := h.lp.LastEstimates()
	if split <= car+20 {
		t.Fatalf("split estimate (%v) should greatly exceed the placement estimate (%v)", split, car)
	}
}

// lpVariant runs Carrefour-LP on THP with line 16's split-all-shared-
// pages rule switched on or off, one LP interval a second after
// khugepaged, as the CarrefourLP pipeline does.
type lpVariant struct {
	sharedSplit bool
	thp         *thp.THP
	lp          *LP
	tel         sim.Telemetry
	last        float64 // time of the last LP interval
}

func (v *lpVariant) Name() string { return "LP-variant" }
func (v *lpVariant) Setup(env *sim.Env) {
	v.thp = thp.New(env.Space, true, env.Costs)
	env.THP = v.thp
	v.lp = New(carrefour.New())
	v.lp.sharedSplit = v.sharedSplit
	v.lp.Bind(v.thp)
	v.last = math.Inf(-1)
}
func (v *lpVariant) Tick(env *sim.Env, now float64) float64 {
	overhead := v.thp.RunPromotionPass()
	if now-v.last >= 1 {
		v.last = now
		overhead += v.lp.TickWith(env, v.tel.Gather(env))
	}
	return overhead
}
func (v *lpVariant) NextDaemonDue(now float64) float64 { return now }

// BenchmarkAblationSplitGranularity compares the paper's
// split-all-shared-pages rule against splitting only hot pages, on the
// false-sharing victim UA.B (machine B) at a tenth of its work. The
// paper's choice exists because per-page LAR estimates are too noisy to
// pick victims (§3.2.1).
func BenchmarkAblationSplitGranularity(b *testing.B) {
	spec, err := workloads.ByName("UA.B")
	if err != nil {
		b.Fatal(err)
	}
	run := func(shared bool) float64 {
		cfg := sim.DefaultConfig()
		cfg.WorkScale = 0.10
		eng, engErr := sim.New(topo.MachineB(), spec, &lpVariant{sharedSplit: shared}, cfg)
		if engErr != nil {
			b.Fatal(engErr)
		}
		return eng.Run().RuntimeSeconds
	}
	for i := 0; i < b.N; i++ {
		all := run(true)
		hotOnly := run(false)
		b.ReportMetric(all, "split-all-s")
		b.ReportMetric(hotOnly, "hot-only-s")
		b.ReportMetric((hotOnly/all-1)*100, "hot-only-penalty%")
	}
}
