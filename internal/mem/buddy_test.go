package mem

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/topo"
)

// checkInvariants verifies the structural buddy invariants on every
// node of s: free-list bookkeeping consistent with the bitmaps, free +
// allocated bytes summing to the node's DRAM, and no block counted
// free at two orders (a double-free would trip the sum).
func checkInvariants(t *testing.T, s *System) {
	t.Helper()
	for n := 0; n < s.Machine.Nodes; n++ {
		b := s.nodes[n]
		var freeBytes uint64
		for o := 0; o <= maxOrder; o++ {
			count := 0
			for idx := uint64(0); idx < b.blocks(o); idx++ {
				if b.isFree(o, idx) {
					count++
					freeBytes += uint64(Size4K) << uint(o)
					// A free block's parent halves must not also be free.
					for j := o - 1; j >= 0 && j >= o-2; j-- {
						lo := idx << uint(o-j)
						for k := lo; k < lo+1<<uint(o-j); k++ {
							if b.isFree(j, k) {
								t.Fatalf("node %d: order-%d block %d free inside free order-%d block %d", n, j, k, o, idx)
							}
						}
					}
				}
			}
			if count != b.nfree[o] {
				t.Fatalf("node %d order %d: nfree=%d but %d bits set", n, o, b.nfree[o], count)
			}
		}
		if freeBytes != b.freeBytes {
			t.Fatalf("node %d: freeBytes=%d but bitmaps hold %d", n, b.freeBytes, freeBytes)
		}
		var liveBytes uint64
		for c, l := range b.live {
			o := []int{0, order2M, maxOrder}[c]
			liveBytes += uint64(len(l)) * (uint64(Size4K) << uint(o))
		}
		if freeBytes+liveBytes != b.frames<<frameShift {
			t.Fatalf("node %d: free %d + live %d != DRAM %d", n, freeBytes, liveBytes, b.frames<<frameShift)
		}
	}
}

// tinyMachine keeps invariant scans cheap: 4 nodes with 4 MB of DRAM
// each (1024 frames), so full-bitmap walks stay fast under fuzzing.
func tinyMachine() *topo.Machine {
	hops := [][]int{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}}
	return topo.New("tiny", 4, 1, 4<<20, 1e9, hops)
}

func TestBuddyFreshNodeMaxOrder(t *testing.T) {
	s := newSys()
	want := int(s.Machine.DRAMPerNode / uint64(Size1G))
	for n := 0; n < s.Machine.Nodes; n++ {
		if got := s.nodes[n].nfree[maxOrder]; got != want {
			t.Fatalf("node %d: fresh free list has %d 1G blocks, want %d", n, got, want)
		}
		if !s.FreeContiguous(topo.NodeID(n), Size1G) {
			t.Fatal("fresh node must have 1G contiguity")
		}
	}
	checkInvariants(t, s)
}

func TestBuddyCoalesceRestoresMaxOrder(t *testing.T) {
	s := NewSystem(tinyMachine(), DefaultLatencyParams())
	// Shatter node 0 completely into 4 KB frames, then free everything:
	// coalescing must restore the original top-order blocks.
	frames := int(s.nodes[0].frames)
	for i := 0; i < frames; i++ {
		if err := s.Allocate(0, Size4K); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if s.FreeBytes(0) != 0 {
		t.Fatal("node should be full")
	}
	checkInvariants(t, s)
	for i := 0; i < frames; i++ {
		if err := s.Free(0, Size4K); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	b := s.nodes[0]
	top := maxOrder
	for b.blocks(top) == 0 {
		top--
	}
	if b.nfree[top] != int(b.blocks(top)) {
		t.Fatalf("after full free: %d top-order blocks, want %d", b.nfree[top], b.blocks(top))
	}
	for o := 0; o < top; o++ {
		if b.nfree[o] != 0 {
			t.Fatalf("after full free: %d stray order-%d blocks", b.nfree[o], o)
		}
	}
	checkInvariants(t, s)
}

func TestBuddyChurnFragments(t *testing.T) {
	// The signature fragmentation sequence: fill a node with 4 KB frames,
	// then free enough random frames that FreeBytes far exceeds 2 MB.
	// The freed frames are scattered (uncorrelated lifetimes), so no
	// order-9 block coalesces and 2 MB allocation fails with
	// ErrFragmented despite ample free bytes.
	s := NewSystem(tinyMachine(), DefaultLatencyParams())
	frames := int(s.nodes[0].frames)
	for i := 0; i < frames; i++ {
		if err := s.Allocate(0, Size4K); err != nil {
			t.Fatal(err)
		}
	}
	// Free half the frames: 2 MB free in total, a full 2 MB block's
	// worth — but scattered across the whole node.
	for i := 0; i < frames/2; i++ {
		if err := s.Free(0, Size4K); err != nil {
			t.Fatal(err)
		}
	}
	if s.FreeBytes(0) < uint64(Size2M) {
		t.Fatalf("free bytes %d below 2M; test sequence broken", s.FreeBytes(0))
	}
	if s.FreeContiguous(0, Size2M) {
		t.Fatal("scattered frees coalesced a full 2M block; fragmentation model broken")
	}
	if err := s.Allocate(0, Size2M); !errors.Is(err, ErrFragmented) {
		t.Fatalf("2M alloc on fragmented node returned %v, want ErrFragmented", err)
	}
	// 4 KB allocation still succeeds: capacity is there, contiguity isn't.
	if err := s.Allocate(0, Size4K); err != nil {
		t.Fatalf("4K alloc should succeed on fragmented node: %v", err)
	}
	checkInvariants(t, s)
}

func TestBuddySplitInPlace(t *testing.T) {
	// vm.SplitChunk relies on Free(2M) + 512×Allocate(4K) never failing,
	// and SplitGiant on Free(1G) + 512×Allocate(2M): freeing a block
	// guarantees its constituents are allocatable on the same node.
	s := newSys()
	// Fill node 1 completely so the reconstituted frames can only come
	// from the freed block itself.
	for s.FreeBytes(1) > 0 {
		if err := s.Allocate(1, Size1G); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(1, Size1G); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := s.Allocate(1, Size2M); err != nil {
			t.Fatalf("2M alloc %d after 1G free: %v", i, err)
		}
	}
	if err := s.Free(1, Size2M); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := s.Allocate(1, Size4K); err != nil {
			t.Fatalf("4K alloc %d after 2M free: %v", i, err)
		}
	}
	checkInvariants(t, s)
}

// runLens maps an op's run selector (bits 5-7) to a frame count. The
// counts straddle the paths of buddyNode.allocRun on tinyMachine's
// 1024-frame nodes: single frames, partial and whole bitmap words, and
// runs long enough to carve 2 MB and whole-node blocks.
var runLens = [8]int{1, 2, 7, 63, 64, 200, 512, 1000}

// applyOps replays a fuzz-provided op stream as a differential: the
// run-granular calls (AllocateRun, FreeRun) on one System against the
// same number of single Allocate/Free calls on a twin, with a shadow
// per-node byte ledger checking conservation on the twin. Each op byte
// encodes: bits 0-1 node, bits 2-3 size class (3 = 1G), bit 4
// free-vs-alloc, bits 5-7 run length (runLens). After every op the two
// Systems must hold the same buddy state (sameState).
func applyOps(t *testing.T, ops []byte) {
	t.Helper()
	s := NewSystem(tinyMachine(), DefaultLatencyParams())
	twin := NewSystem(tinyMachine(), DefaultLatencyParams())
	sizes := []PageSize{Size4K, Size2M, Size1G, Size2M}
	liveCount := make(map[[2]int]int)
	dram := s.nodes[0].frames << frameShift
	for opi, op := range ops {
		n := topo.NodeID(op & 3)
		z := sizes[(op>>2)&3]
		k := runLens[op>>5]
		key := [2]int{int(n), sizeClass(z)}
		if op&16 != 0 {
			runErr := s.FreeRun(n, z, k)
			var err error
			freed := 0
			for ; freed < k; freed++ {
				if err = twin.Free(n, z); err != nil {
					break
				}
			}
			if (runErr == nil) != (err == nil) {
				t.Fatalf("op %d: FreeRun(%d) returned %v, %d single frees stopped at %v", opi, k, runErr, freed, err)
			}
			if freed < k && liveCount[key] != freed {
				t.Fatalf("op %d: free %d of %d stopped with %d live", opi, freed, k, liveCount[key])
			}
			if err != nil && !errors.Is(err, ErrOverFree) {
				t.Fatalf("op %d: over-free returned %v, want ErrOverFree", opi, err)
			}
			liveCount[key] -= freed
		} else {
			got := s.AllocateRun(n, z, k)
			var err error
			done := 0
			for ; done < k; done++ {
				if err = twin.Allocate(n, z); err != nil {
					break
				}
			}
			if got != done {
				t.Fatalf("op %d: AllocateRun(%d) reserved %d, single allocations %d", opi, k, got, done)
			}
			liveCount[key] += done
			switch {
			case err == nil:
			case errors.Is(err, ErrOutOfMemory):
				if twin.FreeBytes(n) >= uint64(z) {
					t.Fatalf("op %d: ErrOutOfMemory with %d free", opi, twin.FreeBytes(n))
				}
			case errors.Is(err, ErrFragmented):
				if twin.FreeBytes(n) < uint64(z) {
					t.Fatalf("op %d: ErrFragmented but free bytes %d < %d", opi, twin.FreeBytes(n), uint64(z))
				}
				if z == Size4K {
					t.Fatalf("op %d: a 4K allocation can never fragment", opi)
				}
			default:
				t.Fatalf("op %d: unexpected error %v", opi, err)
			}
		}
		var liveBytes uint64
		for c, l := range twin.nodes[n].live {
			liveBytes += uint64(len(l)) * (uint64(Size4K) << uint([]int{0, order2M, maxOrder}[c]))
		}
		if twin.FreeBytes(n)+liveBytes != dram {
			t.Fatalf("op %d: node %d conservation broken: free %d + live %d != %d",
				opi, n, twin.FreeBytes(n), liveBytes, dram)
		}
		sameState(t, opi, s, twin)
	}
	checkInvariants(t, s)
	checkInvariants(t, twin)
	// Draining every live allocation must restore all nodes to empty
	// top-order free lists (full coalescing).
	for key, c := range liveCount {
		z := []PageSize{Size4K, Size2M, Size1G}[key[1]]
		if err := s.FreeRun(topo.NodeID(key[0]), z, c); err != nil {
			t.Fatalf("drain free: %v", err)
		}
	}
	for n := 0; n < s.Machine.Nodes; n++ {
		if s.Allocated(topo.NodeID(n)) != 0 {
			t.Fatalf("node %d not empty after drain", n)
		}
		b := s.nodes[n]
		top := maxOrder
		for b.blocks(top) == 0 {
			top--
		}
		if b.nfree[top] != int(b.blocks(top)) {
			t.Fatalf("node %d did not coalesce back to order %d", n, top)
		}
	}
	checkInvariants(t, s)
}

// sameState fails unless a and b hold the same allocator state: per
// node the free bits of every order (a bitmap word past one System's
// high-water mark counts as zero), the free counts, the free bytes and
// the live lists in order, plus the shared LCG state. cursor is exempt:
// it is only a lower bound for the lowest-address scan.
func sameState(t *testing.T, opi int, a, b *System) {
	t.Helper()
	if a.rng != b.rng {
		t.Fatalf("op %d: LCG state %#x != %#x", opi, a.rng, b.rng)
	}
	for n := range a.nodes {
		x, y := a.nodes[n], b.nodes[n]
		if x.freeBytes != y.freeBytes || x.nfree != y.nfree {
			t.Fatalf("op %d node %d: freeBytes %d/%d, nfree %v/%v", opi, n, x.freeBytes, y.freeBytes, x.nfree, y.nfree)
		}
		for o := range x.bits {
			for i := 0; i < len(x.bits[o]) || i < len(y.bits[o]); i++ {
				if wa, wb := word(x.bits[o], i), word(y.bits[o], i); wa != wb {
					t.Fatalf("op %d node %d order %d word %d: %#x != %#x", opi, n, o, i, wa, wb)
				}
			}
		}
		for c := range x.live {
			if !slices.Equal(x.live[c], y.live[c]) {
				t.Fatalf("op %d node %d: live lists of class %d differ", opi, n, c)
			}
		}
	}
}

// word reads bitmap word i, zero past the high-water mark.
func word(w []uint64, i int) uint64 {
	if i < len(w) {
		return w[i]
	}
	return 0
}

// fuzzSeeds are FuzzBuddy's corpus seeds and TestBuddyFuzzSeeds' cases.
// The later ones scatter order-0 bits with random frees and then
// allocate runs across them: 224 allocates 1000 frames on node 0, 176
// frees 200, 96 and 128 allocate 63 and 64, 192 allocates 512 (carving
// whole blocks), and 244 frees 1000 (an over-free).
var fuzzSeeds = [][]byte{
	{0, 4, 8, 16, 20, 24},
	{0, 0, 0, 16, 4, 4, 20, 8, 24, 24},
	{8, 8, 8, 8, 24},
	{},
	{224, 176, 96, 48, 128, 0, 176, 192, 176, 64, 32, 160},
	{4, 0, 1, 2, 224, 176, 241, 194, 209, 96, 112, 128, 20, 192, 244},
	{192, 20, 32, 212, 48, 176, 4, 160, 36, 132, 224},
}

// FuzzBuddy fuzzes random alloc/free sequences against the buddy
// invariants and the run-vs-single differential;
// `go test -fuzz=FuzzBuddy -fuzztime=20s ./internal/mem` runs in CI as
// a smoke step.
func FuzzBuddy(f *testing.F) {
	for _, ops := range fuzzSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, ops)
	})
}

func TestBuddyFuzzSeeds(t *testing.T) {
	// The fuzz corpus seeds double as deterministic regression tests.
	for _, ops := range fuzzSeeds {
		applyOps(t, ops)
	}
}
