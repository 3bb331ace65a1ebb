package core

import (
	"testing"

	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
)

func newTridentHarness(t *testing.T) (*harness, *Trident) {
	t.Helper()
	h := newHarness(t)
	tr := NewTrident(carrefour.New())
	tr.Bind(h.thp)
	return h, tr
}

func s1g(r *vm.Region, head, thread int, node topo.NodeID, off uint64) ibs.Sample {
	return ibs.Sample{
		Page:   vm.PageID{Region: r, Chunk: head, Sub: -1},
		Off:    off,
		Thread: int32(thread), Core: int32(thread),
		AccessorNode: uint8(node), HomeNode: uint8(r.ChunkInfo(head).Node),
		DRAM: true, Weight: 1,
	}
}

func TestTridentPromotesUnderWalkPressure(t *testing.T) {
	h, tr := newTridentHarness(t)
	// No pressure: the ladder must not climb.
	tr.TickWith(h.env, sim.View{})
	if h.r.ChunkInfo(0).State != vm.Mapped2M {
		t.Fatal("promoted without walk pressure")
	}
	tr.TickWith(h.env, sim.View{Window: sim.WindowMetrics{PTWSharePct: 10}})
	if h.r.ChunkInfo(0).State != vm.Mapped1G {
		t.Fatalf("span not promoted: %v", h.r.ChunkInfo(0).State)
	}
	if p, _ := tr.Stats(); p != 1 {
		t.Fatalf("promotes = %d, want 1", p)
	}
}

func TestTridentDemotesSharedGiantWhenSplitHelps(t *testing.T) {
	h, tr := newTridentHarness(t)
	tr.TickWith(h.env, sim.View{Window: sim.WindowMetrics{PTWSharePct: 10}})
	if h.r.ChunkInfo(0).State != vm.Mapped1G {
		t.Fatal("setup promotion failed")
	}
	// The giant page is accessed from four nodes, each node hammering its
	// own distinct 2 MB chunks: at 1 GB granularity the page is hopelessly
	// shared, at 2 MB granularity it is perfectly separable — the
	// LP-style what-if says demote. Spread weight over several chunks so
	// no single sampled region crosses the hot threshold alone.
	var samples []ibs.Sample
	for i := 0; i < 64; i++ {
		node := topo.NodeID(i % 4)
		chunk := uint64(i % 16)
		samples = append(samples, s1g(h.r, 0, int(node)*6, node, chunk*uint64(mem.Size2M)))
	}
	tr.TickWith(h.env, sim.View{Samples: samples})
	if h.r.ChunkInfo(0).State != vm.Mapped2M {
		t.Fatalf("shared giant page not demoted: %v", h.r.ChunkInfo(0).State)
	}
	if _, d := tr.Stats(); d != 1 {
		t.Fatalf("demotes = %d, want 1", d)
	}
	// A freshly demoted span sits out PromoteCooldownIntervals ticks
	// (ladder oscillation guard), even under sustained pressure.
	for i := 0; i < promoteCooldownIntervals-1; i++ {
		tr.TickWith(h.env, sim.View{Window: sim.WindowMetrics{PTWSharePct: 10}})
		if h.r.ChunkInfo(0).State != vm.Mapped2M {
			t.Fatalf("ladder re-promoted %d intervals after a demotion", i+1)
		}
	}
	// Once the cooldown lapses the ladder may climb again.
	tr.TickWith(h.env, sim.View{Window: sim.WindowMetrics{PTWSharePct: 10}})
	if h.r.ChunkInfo(0).State != vm.Mapped1G {
		t.Fatal("ladder stuck after the cooldown lapsed")
	}
}
