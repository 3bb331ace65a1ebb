package vm

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// splitInvariant returns an error naming the first chunk of r that
// breaks the split record's invariants: the 4 KB bookkeeping exists
// exactly when the chunk is split, and a split chunk maps at least one
// 4 KB page (releasing the last one unmaps the chunk).
func splitInvariant(r *Region) error {
	for ci := range r.chunks {
		c := &r.chunks[ci]
		if (c.subs != nil) != (c.state == state4K) {
			return fmt.Errorf("chunk %d: state %d, subs present %v", ci, c.state, c.subs != nil)
		}
		if c.state == state4K && c.subs.mapped < 1 {
			return fmt.Errorf("chunk %d: split with %d mapped pages", ci, c.subs.mapped)
		}
	}
	return nil
}

// TestPhysicalBytesInvariant drives random sequences of the OS page
// operations and checks, after every step, that the physical allocator's
// byte accounting equals the sum of mapped bytes across regions, that
// the incremental page census matches a full recount, and that every
// chunk keeps the split record's invariants (splitInvariant).
func TestPhysicalBytesInvariant(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		m := topo.MachineA()
		phys := mem.NewSystem(m, mem.DefaultLatencyParams())
		s := NewAddrSpace(m, phys, DefaultFaultParams())
		s.AllocSize = func(*Region, int) mem.PageSize { return mem.Size2M }
		r := s.Mmap("prop", 32<<20, true)
		rng := stats.NewRng(seed)
		costs := DefaultOpCosts()

		check := func() bool {
			var allocated uint64
			for n := 0; n < m.Nodes; n++ {
				allocated += phys.Allocated(topo.NodeID(n))
			}
			if allocated != r.MappedBytes() {
				return false
			}
			a4, a2, a1 := r.MappedPages()
			b4, b2, b1 := r.recountPages()
			return a4 == b4 && a2 == b2 && a1 == b1 && splitInvariant(r) == nil
		}

		for _, op := range ops {
			ci := rng.Intn(r.NumChunks())
			switch op % 6 {
			case 0: // touch (maybe fault 2M)
				off := uint64(ci)*uint64(mem.Size2M) + uint64(rng.Intn(1<<21))
				r.Access(topo.CoreID(rng.Intn(24)), rng.Intn(24), off)
			case 1: // migrate
				r.MigrateChunk(ci, topo.NodeID(rng.Intn(4)), costs)
			case 2: // split
				r.SplitChunk(ci, costs)
			case 3: // interleave (only split chunks respond)
				r.InterleaveSubs(ci, rng, costs)
			case 4: // promote back
				if node, ok := r.DominantSubNode(ci); ok {
					r.PromoteChunk(ci, node, 1, costs)
				}
			case 5: // unmap a 4 KB-aligned range, possibly a split chunk's last pages
				lo := uint64(ci) * uint64(mem.Size2M)
				if rng.Bernoulli(0.5) {
					lo += uint64(rng.Intn(SubsPerChunk)) * uint64(mem.Size4K)
				}
				r.Unmap(lo, lo+uint64(rng.Intn(2*SubsPerChunk)+1)*uint64(mem.Size4K))
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitPreservesPlacement verifies that splitting then promoting a
// chunk round-trips its physical bytes regardless of interleaving in
// between.
func TestSplitPreservesPlacement(t *testing.T) {
	f := func(seed uint64) bool {
		m := topo.MachineA()
		phys := mem.NewSystem(m, mem.DefaultLatencyParams())
		s := NewAddrSpace(m, phys, DefaultFaultParams())
		s.AllocSize = func(*Region, int) mem.PageSize { return mem.Size2M }
		r := s.Mmap("rt", 4<<20, true)
		rng := stats.NewRng(seed)
		r.Access(topo.CoreID(rng.Intn(24)), 0, 0)
		before := r.MappedBytes()
		r.SplitChunk(0, DefaultOpCosts())
		r.InterleaveSubs(0, rng, DefaultOpCosts())
		if r.MappedBytes() != before {
			return false
		}
		node, ok := r.DominantSubNode(0)
		if !ok {
			return false
		}
		if _, ok := r.PromoteChunk(0, node, 1, DefaultOpCosts()); !ok {
			return false
		}
		return r.MappedBytes() == before && r.ChunkInfo(0).State == Mapped2M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
