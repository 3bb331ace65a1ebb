package vm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// spansReference is the original per-sub Spans walk, kept verbatim as
// the oracle for the cached-run fast path: it scans every 4 KB slot of
// split chunks instead of replaying subArrays.subRuns. Any invalidation
// gap in the cache (a node writer that forgets to clear runsOK) makes the
// two walks diverge.
func spansReference(r *Region, lo, hi uint64, fn func(node topo.NodeID, spanLo, spanHi uint64)) (unmappedBytes uint64) {
	if hi > uint64(len(r.chunks))*uint64(mem.Size2M) {
		hi = uint64(len(r.chunks)) * uint64(mem.Size2M)
	}
	if lo >= hi {
		return 0
	}
	var runNode topo.NodeID
	var runLo, runHi uint64
	emit := func(node topo.NodeID, a, b uint64) {
		if runHi > runLo && node == runNode && a == runHi {
			runHi = b
			return
		}
		if runHi > runLo {
			fn(runNode, runLo, runHi)
		}
		runNode, runLo, runHi = node, a, b
	}
	for ci := int(lo >> chunkShift); ci <= int((hi-1)>>chunkShift); ci++ {
		base := uint64(ci) << chunkShift
		a, b := base, base+uint64(mem.Size2M)
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		c := &r.chunks[ci]
		switch c.state {
		case state2M:
			emit(c.node, a, b)
		case state1G:
			emit(r.chunks[c.giantHead].node, a, b)
		case state4K:
			for sub := int((a - base) >> subShift); sub < SubsPerChunk; sub++ {
				sa := base + uint64(sub)<<subShift
				if sa >= b {
					break
				}
				sb := sa + uint64(mem.Size4K)
				if sa < a {
					sa = a
				}
				if sb > b {
					sb = b
				}
				if n := c.subs.node[sub]; n != unmappedNode {
					emit(topo.NodeID(n), sa, sb)
				} else {
					unmappedBytes += sb - sa
				}
			}
		default:
			unmappedBytes += b - a
		}
	}
	if runHi > runLo {
		fn(runNode, runLo, runHi)
	}
	return unmappedBytes
}

// collectSpans flattens one walk into a comparable trace.
func collectSpans(walk func(fn func(node topo.NodeID, a, b uint64)) uint64) []uint64 {
	out := make([]uint64, 0, 64)
	unmapped := walk(func(node topo.NodeID, a, b uint64) {
		out = append(out, uint64(node), a, b)
	})
	return append(out, unmapped)
}

// TestSpansCacheMatchesReference drives random mutation sequences
// through every public op — including the batched allocation commits —
// and checks after each step that the cached-run Spans walk visits
// exactly the spans the per-sub reference does, over both the full
// region and random sub-ranges (the census queries block interiors and
// hot prefixes, so clipping must be exact too).
func TestSpansCacheMatchesReference(t *testing.T) {
	const bytes = 4 << 30
	m := topo.MachineA()
	nodes := m.Nodes
	for _, seed := range []uint64{1, 2, 3} {
		rng := stats.NewRng(seed)
		phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
		space := NewAddrSpace(m, phys, DefaultFaultParams())
		force2M := false
		space.AllocSize = func(*Region, int) mem.PageSize {
			if force2M || rng.Bernoulli(0.5) {
				return mem.Size2M
			}
			return mem.Size4K
		}
		costs := DefaultOpCosts()
		r := space.Mmap("spans", bytes, true)

		check := func(step int, name string) {
			t.Helper()
			lo, hi := uint64(0), uint64(bytes)
			if step%3 == 1 { // random clipped window
				lo = uint64(rng.Intn(int(bytes>>12))) << 12
				hi = lo + uint64(rng.Intn(1<<20)+1)
			} else if step%3 == 2 { // unaligned window
				lo = uint64(rng.Intn(int(bytes - 4096)))
				hi = lo + uint64(rng.Intn(8<<20)+1)
			}
			got := collectSpans(func(fn func(topo.NodeID, uint64, uint64)) uint64 {
				return r.Spans(lo, hi, fn)
			})
			want := collectSpans(func(fn func(topo.NodeID, uint64, uint64)) uint64 {
				return spansReference(r, lo, hi, fn)
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d (%s) [%d,%d): cached walk emitted %d words, reference %d",
					seed, step, name, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d (%s) [%d,%d): cached walk diverges from reference at word %d: %d != %d",
						seed, step, name, lo, hi, i, got[i], want[i])
				}
			}
		}

		check(0, "init")
		for step := 1; step <= 600; step++ {
			op := rng.Intn(12)
			nc := r.NumChunks()
			ci := rng.Intn(nc)
			node := topo.NodeID(rng.Intn(nodes))
			core := topo.CoreID(rng.Intn(m.TotalCores()))
			var name string
			switch op {
			case 0, 1, 2:
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
				r.Unmap(lo, lo+uint64(rng.Intn(16)+1)<<12)
			case 9:
				name = "InterleaveSubs"
				r.InterleaveSubs(ci, rng, costs)
			case 10:
				name = "ApplyAllocFault4KRun"
				start := rng.Intn(SubsPerChunk)
				k := rng.Intn(8) + 1
				if start+k > SubsPerChunk {
					k = SubsPerChunk - start
				}
				pages := make([]uint32, 0, k)
				for p := 0; p < k; p++ {
					pages = append(pages, uint32(ci*SubsPerChunk+start+p))
				}
				run := r.ClassifyAllocRun(core, pages)
				if run.Kind == AllocRunFault4K && uint64(run.N)*uint64(mem.Size4K) <= phys.FreeBytes(run.Node) {
					r.ApplyAllocFault4KRun(core, 0, run.Node, pages, run.N, 0)
				}
			default:
				// The alloc phase's 2 MB claim: a first touch through
				// the per-page fault path with the policy asking for 2 MB.
				name = "2M Access fault"
				force2M = true
				r.Access(core, 0, uint64(ci)<<21)
				force2M = false
			}
			check(step, name)
		}
	}
}
