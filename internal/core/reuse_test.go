package core

import (
	"math"
	"testing"

	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
)

// sameGrouping reports whether two groupings agree field by field, with
// floats compared bitwise.
func sameGrouping(a, b []carrefour.PageGroup) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		g, h := &a[i], &b[i]
		if g.Page != h.Page || g.Count != h.Count || g.NodeMask != h.NodeMask || g.ThreadMask != h.ThreadMask ||
			!eq(g.Weight, h.Weight) || !eq(g.LocalWeight, h.LocalWeight) || len(g.NodeWeight) != len(h.NodeWeight) {
			return false
		}
		for n := range g.NodeWeight {
			if !eq(g.NodeWeight[n], h.NodeWeight[n]) {
				return false
			}
		}
	}
	return true
}

// checkReuse asserts that the grouping placement would reuse, if any,
// equals a fresh Group of the rebound samples, and names the reused
// grouping: "sampled", "4K", or "fresh" when placement regroups.
func checkReuse(t *testing.T, env *sim.Env, samples []ibs.Sample, sampled, split4K []carrefour.PageGroup) string {
	t.Helper()
	got := reusableGrouping(samples, sampled, split4K)
	if got == nil {
		return "fresh"
	}
	var buf []ibs.Sample
	var gs carrefour.GroupScratch
	want := gs.Group(rebindInto(&buf, samples), env.Machine.Nodes)
	if !sameGrouping(got, want) {
		t.Fatal("reused grouping differs from a fresh grouping of the rebound samples")
	}
	if len(got) > 0 && &got[0] == &sampled[0] {
		return "sampled"
	}
	return "4K"
}

// lpTick runs one LP interval the way TickWith does, checking the
// placement grouping before the placement pass.
func lpTick(t *testing.T, h *harness, samples []ibs.Sample) string {
	t.Helper()
	groups, subGroups, _ := h.lp.reactive(h.env, samples)
	kind := checkReuse(t, h.env, samples, groups, subGroups)
	placeRebound(h.lp.Car, h.env, samples, &h.lp.remapBuf, groups, subGroups)
	return kind
}

// tridentTick runs one Trident interval the way TickWith does, checking
// the placement grouping before the placement pass.
func tridentTick(t *testing.T, h *harness, tr *Trident, v sim.View) string {
	t.Helper()
	tr.tick++
	groups := tr.groupScratch.Group(v.Samples, h.env.Machine.Nodes)
	tr.demote(h.env, v.Samples, groups)
	if v.Window.PTWSharePct > promotePTWSharePct {
		tr.promote(h.env)
	}
	kind := checkReuse(t, h.env, v.Samples, groups, nil)
	placeRebound(tr.Car, h.env, v.Samples, &tr.remapBuf, groups, nil)
	return kind
}

// TestPlacementReusesIntervalGrouping drives LP and Trident intervals
// whose pages split or promote between sampling and placement, and
// checks that every reused grouping is the rebound one and that each
// reuse path is taken.
func TestPlacementReusesIntervalGrouping(t *testing.T) {
	seen := map[string]bool{}
	expect := func(name, got, want string) {
		t.Helper()
		seen[got] = true
		if got != want {
			t.Errorf("%s: placement grouping %s, want %s", name, got, want)
		}
	}

	// LP, nothing splits: single-node chunks, none of them hot, that
	// placement alone fixes.
	h := newHarness(t)
	var samples []ibs.Sample
	for ci := 0; ci < 20; ci++ {
		node := topo.NodeID(ci % 4)
		samples = append(samples, s2m(h.r, ci, int(node)*6, node, 0), s2m(h.r, ci, int(node)*6, node, 4096))
	}
	expect("lp/no-split", lpTick(t, h, samples), "sampled")

	// LP, every sampled chunk is shared and split (line 16): placement
	// sees exactly the 4 KB what-if.
	h = newHarness(t)
	samples = samples[:0]
	for ci := 0; ci < 31; ci++ {
		samples = append(samples, s2m(h.r, ci, 0, 0, 0), s2m(h.r, ci, 6, 1, 4096), s2m(h.r, ci, 0, 0, 0), s2m(h.r, ci, 6, 1, 4096))
	}
	cached := s2m(h.r, 31, 0, 0, 0) // a cache hit on a chunk that stays large
	cached.DRAM = false
	samples = append(samples, cached)
	expect("lp/shared-split", lpTick(t, h, samples), "4K")
	if splits, _, _ := h.lp.Stats(); splits != 31 {
		t.Fatalf("shared split: %d splits, want 31", splits)
	}

	// LP, only the hot chunk splits (line 19): a mix of rebound pages.
	h = newHarness(t)
	samples = samples[:0]
	for i := 0; i < 80; i++ {
		samples = append(samples, s2m(h.r, 0, i%24, topo.NodeID(i%4), 0))
	}
	for i := 0; i < 40; i++ {
		ci := 1 + i%20
		samples = append(samples, s2m(h.r, ci, i%24, topo.NodeID(1+ci%3), uint64(i)*4096))
	}
	expect("lp/hot-split", lpTick(t, h, samples), "fresh")

	// LP, 4 KB samples of a chunk that khugepaged collapsed before the
	// interval: the sampled and 4 KB views coincide, and neither names
	// the current 2 MB page.
	h = newHarness(t)
	h.r.SplitChunk(5, h.env.Costs)
	samples = samples[:0]
	for sub := 0; sub < 8; sub++ {
		s := s2m(h.r, 5, sub, 2, uint64(sub)*4096)
		s.Page.Sub = sub
		samples = append(samples, s)
	}
	if _, ok := h.r.PromoteChunk(5, 2, 1, h.env.Costs); !ok {
		t.Fatal("setup: collapse failed")
	}
	expect("lp/collapsed", lpTick(t, h, samples), "fresh")

	// Trident, a 1 GB promotion inside the interval.
	h, tr := newTridentHarness(t)
	samples = samples[:0]
	for ci := 0; ci < 8; ci++ {
		samples = append(samples, s2m(h.r, ci, ci, topo.NodeID(ci%4), 0))
	}
	expect("trident/quiet", tridentTick(t, h, tr, sim.View{Samples: samples}), "sampled")
	expect("trident/promote", tridentTick(t, h, tr, sim.View{Window: sim.WindowMetrics{PTWSharePct: 10}, Samples: samples}), "fresh")
	if h.r.ChunkInfo(0).State != vm.Mapped1G {
		t.Fatal("setup: span not promoted")
	}

	// Trident, the shared 1 GB page demoted inside the interval.
	samples = samples[:0]
	for i := 0; i < 64; i++ {
		node := topo.NodeID(i % 4)
		samples = append(samples, s1g(h.r, 0, int(node)*6, node, uint64(i%16)*uint64(mem.Size2M)))
	}
	expect("trident/demote", tridentTick(t, h, tr, sim.View{Samples: samples}), "fresh")
	if h.r.ChunkInfo(0).State != vm.Mapped2M {
		t.Fatal("setup: giant not demoted")
	}

	for _, kind := range []string{"sampled", "4K", "fresh"} {
		if !seen[kind] {
			t.Errorf("no interval took the %s path", kind)
		}
	}
}
