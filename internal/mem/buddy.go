package mem

// Binary buddy allocator over 4 KB frames, one instance per NUMA node.
// This replaces the former per-node byte counter so that physical
// contiguity is modeled, not just capacity: a 2 MB or 1 GB allocation
// fails when no free block of that order exists, even when plenty of
// scattered 4 KB frames are free — the fragmentation failure mode that
// makes THP fall back to 4 KB pages and starves khugepaged-style
// promotion (§3.2 of the paper; Panwar et al.'s Trident assumes this
// never happens).
//
// Callers do not hold physical addresses — the vm layer tracks logical
// placement only — so frames of one size on one node are fungible:
// Allocate hands out the lowest-address free block (Linux's order-first
// policy) and Free releases a pseudo-randomly chosen live block of the
// requested size. The random pick models uncorrelated allocation
// lifetimes, which is exactly what scatters holes across the physical
// address space and prevents coalescing; the generator is a fixed-seed
// LCG stepped only by Free, so every run is deterministic and
// worker-count independent (buddy operations happen only in the serial
// sections of the engine).

import (
	"math/bits"
	"slices"
)

const (
	// frameShift is log2(Size4K); frame index = address >> frameShift.
	frameShift = 12
	// maxOrder is the largest block order: 4K << 18 = 1G.
	maxOrder = 18
	// order2M is the order of a 2 MB block: 4K << 9 = 2M.
	order2M = 9
)

// orderOf maps a valid PageSize to its buddy order.
func orderOf(size PageSize) int {
	switch size {
	case Size4K:
		return 0
	case Size2M:
		return order2M
	default:
		return maxOrder
	}
}

// sizeClass maps a valid PageSize to an index into the live-block lists.
func sizeClass(size PageSize) int {
	switch size {
	case Size4K:
		return 0
	case Size2M:
		return 1
	default:
		return 2
	}
}

// buddyNode is one node's DRAM as a buddy system. Free blocks are kept
// in per-order bitmaps (bit i of bits[o] = block i at order o is free).
// Each bitmap is a high-water mark, not a full map of the node: it holds
// words only up to the highest one setFree has written, growing by
// doubling, and a word past its end reads as all-not-free. That is
// exact, because a missing word and a zero word mean the same thing, and
// it keeps a cell's bitmaps proportional to the memory it touches: the
// lowest-address allocation policy keeps every free bit of the split
// orders just above the allocated prefix, so a cell that faults a few
// GiB of a 64 GiB node never builds the node-sized order-0 map.
// cursor[o] is the first word of bits[o] that may contain a set bit,
// making lowest-address scans amortized O(1) under the engine's
// mostly-ascending allocation pattern.
type buddyNode struct {
	frames    uint64 // total 4 KB frames on the node
	freeBytes uint64
	nfree     [maxOrder + 1]int
	cursor    [maxOrder + 1]int
	bits      [maxOrder + 1][]uint64
	live      [3][]uint32 // live block indices per size class
}

// newBuddyNode tiles bytes of DRAM with the largest aligned free blocks
// (whole 1 GB blocks for the paper's machines).
//
// Nodes are deliberately NOT pooled across simulations: an experiment
// tried recycling retired nodes' bitmap and live-list backing through a
// process-wide pool and made whole-pass time ~6% WORSE — the random
// single-frame accesses of Free/FreeRun are TLB-bound, and fresh
// mallocgcLarge mappings (which the host kernel backs with transparent
// huge pages) beat warm-but-fragmented recycled heap pages. The
// high-water bitmaps keep that property: each growth step is a fresh
// allocation, and a cell whose frees scatter over the whole node still
// ends with one full-size map of its own.
func newBuddyNode(bytes uint64) *buddyNode {
	b := &buddyNode{frames: bytes >> frameShift}
	b.freeBytes = b.frames << frameShift
	for f := uint64(0); f < b.frames; {
		o := maxOrder
		for o > 0 && (f&(1<<uint(o)-1) != 0 || f+1<<uint(o) > b.frames) {
			o--
		}
		b.setFree(o, f>>uint(o))
		f += 1 << uint(o)
	}
	return b
}

// blocks is the number of order-o blocks that fit in the node.
func (b *buddyNode) blocks(o int) uint64 { return b.frames >> uint(o) }

// grow extends bits[o] so that it holds word wi, doubling its length (at
// most up to the words the node's order-o blocks need) so that an
// ascending sequence of setFree calls copies each word O(1) times.
func (b *buddyNode) grow(o, wi int) []uint64 {
	n := 2 * len(b.bits[o])
	if n <= wi {
		n = wi + 1
	}
	if full := int((b.blocks(o) + 63) / 64); n > full {
		n = full
	}
	//lpnuma:alloc-ok high-water growth: at most log2(node words) steps per order per cell
	w := make([]uint64, n)
	copy(w, b.bits[o])
	b.bits[o] = w
	return w
}

func (b *buddyNode) setFree(o int, idx uint64) {
	wi := int(idx >> 6)
	w := b.bits[o]
	if wi >= len(w) {
		w = b.grow(o, wi)
	}
	w[wi] |= 1 << (idx & 63)
	if wi < b.cursor[o] {
		b.cursor[o] = wi
	}
	b.nfree[o]++
}

func (b *buddyNode) clearFree(o int, idx uint64) {
	b.bits[o][idx>>6] &^= 1 << (idx & 63)
	b.nfree[o]--
}

func (b *buddyNode) isFree(o int, idx uint64) bool {
	w := b.bits[o]
	if idx>>6 >= uint64(len(w)) {
		return false
	}
	return w[idx>>6]&(1<<(idx&63)) != 0
}

// takeLowest pops the lowest-address free block of order o, which the
// caller has checked exists (nfree[o] > 0).
func (b *buddyNode) takeLowest(o int) uint64 {
	w := b.bits[o]
	i := b.cursor[o]
	for w[i] == 0 {
		i++
	}
	b.cursor[o] = i
	idx := uint64(i)<<6 | uint64(bits.TrailingZeros64(w[i]))
	b.clearFree(o, idx)
	return idx
}

// alloc carves one block of order o out of the free lists, splitting a
// larger block when necessary. It returns the block's frame index, or
// false when no free block of order >= o exists anywhere on the node —
// which can happen with ample freeBytes when the free frames are
// scattered (fragmentation).
func (b *buddyNode) alloc(o int) (uint64, bool) {
	j := o
	for j <= maxOrder && b.nfree[j] == 0 {
		j++
	}
	if j > maxOrder {
		return 0, false
	}
	frame := b.takeLowest(j) << uint(j)
	for j > o {
		j--
		// Keep the lower half, free the upper buddy.
		b.setFree(j, frame>>uint(j)|1)
	}
	b.freeBytes -= uint64(Size4K) << uint(o)
	return frame, true
}

// allocRun reserves up to count order-o blocks exactly as count
// sequential alloc calls would, appending each block's index to
// b.live[c] in the same order, and returns how many it reserved. It
// stops where alloc would first fail: no free block of order >= o left
// (freeBytes always equals the free blocks' sum, so that is also where
// freeBytes runs out). Two steps replace runs of per-block calls:
//
//   - While order o has free blocks, alloc would pop them lowest-first
//     from the cursor word, one takeLowest each with no split; the word
//     path pops every wanted set bit of that word in one step.
//   - When order o is empty, alloc would take the lowest block of the
//     lowest non-empty order j, split it, and then hand out all 2^(j-o)
//     of its order-o pieces in ascending order before touching anything
//     else, since every free block below order j is one of its split
//     buddies. When at least that many blocks are still wanted, the
//     block is carved whole, with one takeLowest and no lower-order
//     bitmap traffic (the splits and takes cancel out).
//
// Any shorter remainder falls back to alloc one block at a time. Only
// cursor can differ from the per-call sequence, and it is a scan hint.
func (b *buddyNode) allocRun(o, c, count int) int {
	live := b.live[c]
	size := uint64(Size4K) << uint(o)
	if want := min(count, int(b.freeBytes/size)); cap(live)-len(live) < want {
		// Reserve the whole run up front, at least doubling: the list
		// holds every live frame of the node, and append would grow a
		// long one by a quarter at a time. The appends below stay
		// within this capacity.
		//lpnuma:alloc-ok live list holds every live frame: doubling amortizes its growth
		live = slices.Grow(live, max(want, len(live)))
	}
	done := 0
	for done < count {
		if b.nfree[o] > 0 {
			w := b.bits[o]
			i := b.cursor[o]
			for w[i] == 0 {
				i++
			}
			b.cursor[o] = i
			x, k := w[i], 0
			for ; x != 0 && done+k < count; k++ {
				live = append(live, uint32(uint64(i)<<6|uint64(bits.TrailingZeros64(x))))
				x &= x - 1
			}
			w[i] = x
			b.nfree[o] -= k
			b.freeBytes -= uint64(k) * size
			done += k
			continue
		}
		j := o + 1
		for j <= maxOrder && b.nfree[j] == 0 {
			j++
		}
		if j > maxOrder {
			break
		}
		if span := 1 << uint(j-o); count-done >= span {
			first := b.takeLowest(j) << uint(j-o)
			for k := uint64(0); k < uint64(span); k++ {
				live = append(live, uint32(first+k))
			}
			b.freeBytes -= size << uint(j-o)
			done += span
			continue
		}
		frame, _ := b.alloc(o)
		live = append(live, uint32(frame>>uint(o)))
		done++
	}
	b.live[c] = live
	return done
}

// release returns the order-o block at frame to the free lists,
// coalescing with its buddy repeatedly while the buddy is free — so a
// fully freed node always recovers its maximum-order blocks.
func (b *buddyNode) release(o int, frame uint64) {
	b.freeBytes += uint64(Size4K) << uint(o)
	idx := frame >> uint(o)
	// A block and its buddy differ only in bit 0 of the block index, so
	// both bits live in the same bitmap word: one load serves the buddy
	// test and (on coalesce) its clear, instead of isFree+clearFree each
	// re-deriving the word.
	for o < maxOrder {
		w := b.bits[o]
		bi := idx ^ 1
		if bi>>6 >= uint64(len(w)) {
			break // past the high-water mark: not free
		}
		word := &w[bi>>6]
		mask := uint64(1) << (bi & 63)
		if *word&mask == 0 {
			break
		}
		*word &^= mask
		b.nfree[o]--
		idx >>= 1
		o++
	}
	b.setFree(o, idx)
}

// contiguousFree reports whether a block of the given order is free.
func (b *buddyNode) contiguousFree(o int) bool {
	for j := o; j <= maxOrder; j++ {
		if b.nfree[j] > 0 {
			return true
		}
	}
	return false
}
