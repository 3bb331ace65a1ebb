package carrefour

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// testEnv builds a small live environment with mapped 2 MB pages.
func testEnv(t *testing.T) (*sim.Env, *vm.Region) {
	t.Helper()
	spec := workloads.Spec{
		Name: "carrtest",
		Regions: []workloads.RegionSpec{
			{Name: "data", Bytes: 32 << 20, Weight: 1, Loc: cache.RandomUniform,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 32},
		},
		WorkPerThread:        1e5,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.5,
	}
	pol := thpPolicy{}
	eng, err := sim.New(topo.MachineA(), spec, &pol, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	r := env.Space.Regions()[0]
	// Map every chunk with a 2 MB page via direct access.
	for ci := 0; ci < r.NumChunks(); ci++ {
		r.Access(topo.CoreID(ci%24), ci%24, uint64(ci)*uint64(2<<20))
	}
	return env, r
}

type thpPolicy struct{}

func (thpPolicy) Name() string { return "test" }
func (thpPolicy) Setup(env *sim.Env) {
	env.Space.AllocSize = func(*vm.Region, int) mem.PageSize { return mem.Size2M }
}
func (thpPolicy) Tick(*sim.Env, float64) float64    { return 0 }
func (thpPolicy) NextDaemonDue(now float64) float64 { return now }

func sample(r *vm.Region, chunk, thread int, node topo.NodeID, dram bool) ibs.Sample {
	return ibs.Sample{
		Page:   vm.PageID{Region: r, Chunk: chunk, Sub: -1},
		Off:    uint64(chunk) * (2 << 20),
		Thread: int32(thread), Core: int32(thread),
		AccessorNode: uint8(node), HomeNode: uint8(r.ChunkInfo(chunk).Node),
		DRAM: dram, Weight: 1,
	}
}

func TestGroupSamplesAggregates(t *testing.T) {
	env, r := testEnv(t)
	_ = env
	samples := []ibs.Sample{
		sample(r, 0, 1, 0, true),
		sample(r, 0, 2, 0, true),
		sample(r, 1, 3, 1, true),
		sample(r, 1, 3, 2, true),
		sample(r, 2, 0, 0, false), // cached: must be ignored
	}
	var gs GroupScratch
	groups := gs.Group(samples, 4)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (cached sample dropped)", len(groups))
	}
	g0 := groups[0]
	if g0.Page.Chunk != 0 || g0.Count != 2 || g0.Threads() != 2 {
		t.Fatalf("group 0: %+v", g0)
	}
	if single, node := g0.SingleNode(); !single || node != 0 {
		t.Fatal("chunk 0 should be single-node (node 0)")
	}
	g1 := groups[1]
	if single, _ := g1.SingleNode(); single {
		t.Fatal("chunk 1 seen from two nodes should not be single-node")
	}
}

func TestGroupSamplesDeterministicOrder(t *testing.T) {
	_, r := testEnv(t)
	a := []ibs.Sample{sample(r, 5, 0, 0, true), sample(r, 1, 0, 0, true), sample(r, 3, 0, 0, true)}
	b := []ibs.Sample{sample(r, 3, 0, 0, true), sample(r, 5, 0, 0, true), sample(r, 1, 0, 0, true)}
	var sa, sb GroupScratch
	ga, gb := sa.Group(a, 4), sb.Group(b, 4)
	for i := range ga {
		if ga[i].Page.Chunk != gb[i].Page.Chunk {
			t.Fatal("group order depends on sample order")
		}
	}
	if ga[0].Page.Chunk != 1 || ga[1].Page.Chunk != 3 || ga[2].Page.Chunk != 5 {
		t.Fatal("groups not sorted by page")
	}
}

func TestApplyMigratesSingleNodePages(t *testing.T) {
	env, r := testEnv(t)
	c := New()
	// Chunk 0 sampled exclusively from node 3.
	samples := []ibs.Sample{
		sample(r, 0, 20, 3, true),
		sample(r, 0, 21, 3, true),
		sample(r, 0, 22, 3, true),
	}
	before := r.ChunkInfo(0).Node
	cycles := c.Apply(env, samples)
	after := r.ChunkInfo(0).Node
	if after != 3 {
		t.Fatalf("chunk 0 on node %d, want 3 (was %d)", after, before)
	}
	if before != 3 && cycles <= 0 {
		t.Fatal("migration should cost cycles")
	}
	mig, _, _ := c.Stats()
	if before != 3 && mig != 1 {
		t.Fatalf("migrations = %d", mig)
	}
}

func TestApplyInterleavesMultiNodePagesOnce(t *testing.T) {
	env, r := testEnv(t)
	c := New()
	samples := []ibs.Sample{
		sample(r, 1, 0, 0, true),
		sample(r, 1, 6, 1, true),
		sample(r, 1, 12, 2, true),
	}
	c.Apply(env, samples)
	_, inter, _ := c.Stats()
	if inter != 1 {
		t.Fatalf("interleaves = %d, want 1", inter)
	}
	// A second pass with the same evidence must not thrash the page.
	c.Apply(env, samples)
	_, inter2, _ := c.Stats()
	if inter2 != 1 {
		t.Fatalf("page re-interleaved: %d", inter2)
	}
}

func TestApplyRespectsMinSamples(t *testing.T) {
	env, r := testEnv(t)
	c := New()
	before := r.ChunkInfo(2).Node
	c.Apply(env, []ibs.Sample{sample(r, 2, 0, 3, true)}) // single sample
	if r.ChunkInfo(2).Node != before {
		t.Fatal("acted on a single-sample page")
	}
}

func TestStaleSamplesSkipped(t *testing.T) {
	env, r := testEnv(t)
	c := New()
	// Split chunk 4 after sampling it at 2M granularity.
	samples := []ibs.Sample{sample(r, 4, 0, 3, true), sample(r, 4, 1, 3, true)}
	r.SplitChunk(4, env.Costs)
	if cyc := c.Apply(env, samples); cyc != 0 {
		t.Fatal("stale 2M sample should not migrate a split chunk")
	}
}
