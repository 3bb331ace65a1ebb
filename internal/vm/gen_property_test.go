package vm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// mappingFingerprint captures everything the analytic engine's snapshot
// derives from a region's mappings: the per-node mapped spans (placement
// and page-size structure via span boundaries), the mapped-page counts
// per size class, and the page-table home. If two states fingerprint
// differently, some Gen-keyed cache entry built on the first state is
// stale for the second.
func mappingFingerprint(r *Region, bytes uint64) []uint64 {
	fp := make([]uint64, 0, 64)
	r.Spans(0, bytes, func(node topo.NodeID, lo, hi uint64) {
		fp = append(fp, uint64(node), lo, hi)
	})
	n4k, n2m, n1g := r.MappedPages()
	fp = append(fp, uint64(n4k), uint64(n2m), uint64(n1g))
	home, set := r.PTHome()
	if set {
		fp = append(fp, 1, uint64(home))
	} else {
		fp = append(fp, 0, 0)
	}
	return fp
}

func fpEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGenCoversObservableMappingChanges is the property test behind the
// incremental analytic engine (DESIGN.md §4.10): over random sequences
// of every public mutation op, any change to the observable mapping
// fingerprint MUST be accompanied by a Gen bump. The converse is not
// required — conservative bumps (a shrink that unmaps nothing new, a
// failed promotion that still scanned) are allowed — but a fingerprint
// change with a stale Gen is exactly the bug class that silently
// mis-prices traffic, so it fails loudly here. Every step also checks
// the split record's invariants (splitInvariant).
func TestGenCoversObservableMappingChanges(t *testing.T) {
	const bytes = 4 << 30 // two giant frames of room
	m := topo.MachineA()
	nodes := m.Nodes
	for _, seed := range []uint64{1, 2, 3} {
		rng := stats.NewRng(seed)
		phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
		space := NewAddrSpace(m, phys, DefaultFaultParams())
		// Randomize fault page size so the region grows a mix of 4K
		// chunks and 2M chunks for the ops below to act on.
		space.AllocSize = func(*Region, int) mem.PageSize {
			if rng.Bernoulli(0.5) {
				return mem.Size2M
			}
			return mem.Size4K
		}
		costs := DefaultOpCosts()
		r := space.Mmap("prop", bytes, true)

		prevFP := mappingFingerprint(r, bytes)
		prevGen := r.Gen()
		for step := 0; step < 600; step++ {
			op := rng.Intn(10)
			nc := r.NumChunks()
			ci := rng.Intn(nc)
			node := topo.NodeID(rng.Intn(nodes))
			core := topo.CoreID(rng.Intn(m.TotalCores()))
			var name string
			switch op {
			case 0, 1, 2: // faults dominate real traces
				name = "Access"
				r.Access(core, 0, uint64(rng.Intn(nc))<<21|uint64(rng.Intn(1<<21)))
			case 3:
				name = "MigrateChunk"
				r.MigrateChunk(ci, node, costs)
			case 4:
				name = "SplitChunk"
				r.SplitChunk(ci, costs)
			case 5:
				name = "MigrateSub"
				r.MigrateSub(ci, rng.Intn(512), node, costs)
			case 6:
				name = "PromoteChunk"
				r.PromoteChunk(ci, node, rng.Intn(512), costs)
			case 7:
				name = "giant ops"
				head := (ci / 512) * 512
				switch rng.Intn(3) {
				case 0:
					r.MapGiant(head, node)
				case 1:
					r.PromoteGiant(head, costs)
				default:
					r.SplitGiant(head, costs)
				}
			case 8:
				name = "Unmap"
				lo := uint64(rng.Intn(nc)) << 21
				n := uint64(rng.Intn(16)+1) << 12
				if rng.Bernoulli(0.5) {
					// Empty a whole chunk, the next split one if any.
					for c := int(lo >> 21); c < nc; c++ {
						if r.chunks[c].state == state4K {
							lo = uint64(c) << 21
							break
						}
					}
					n = 1 << 21
				}
				r.Unmap(lo, lo+n)
			case 9:
				name = "MigratePT"
				r.MigratePT(node)
			}
			if err := splitInvariant(r); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, name, err)
			}
			fp := mappingFingerprint(r, bytes)
			gen := r.Gen()
			if !fpEqual(fp, prevFP) && gen == prevGen {
				t.Fatalf("seed %d step %d: %s changed the observable mapping without bumping Gen", seed, step, name)
			}
			prevFP, prevGen = fp, gen
		}
	}
}
