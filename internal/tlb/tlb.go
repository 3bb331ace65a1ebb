// Package tlb models the two-level translation lookaside buffer and the
// page-table walks taken on TLB misses. The model is analytic: given how a
// thread's accesses distribute over segments of distinct pages (which
// depends on the page size backing each region — the whole point of the
// paper), it computes the probability of L1-TLB hits, L2-TLB hits and full
// misses, the expected cycle cost of a walk, and the expected number of L2
// cache misses each walk causes. The latter feeds the
// "% of L2 misses due to page-table walks" counter that Carrefour-LP's
// conservative component monitors (Algorithm 1, line 4). The TLB
// geometry and walk costs are package constants approximating the
// paper's AMD Opteron machines.
package tlb

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/stats"
)

// The TLB hierarchy and walk costs, approximating the AMD Opteron
// family used in the paper.
const (
	// l1Entries is the fully-associative first-level TLB shared by all
	// page sizes.
	l1Entries int = 48
	// l2Entries4K, l2Entries2M and l2Entries1G are the second-level TLB
	// capacities per page-size class.
	l2Entries4K int = 1024
	l2Entries2M int = 128
	l2Entries1G int = 16

	// L2HitCycles is the penalty for an access served by the L2 TLB.
	L2HitCycles float64 = 7
	// upperLevelCycles is the per-level cost of walking the (almost
	// always cached) upper page-table levels.
	upperLevelCycles float64 = 6
	// leafHitCycles is the cost of a leaf PTE fetch served by the paging
	// caches / L2 cache.
	leafHitCycles float64 = 15
	// leafMissCycles is the cost of a leaf PTE fetch from DRAM.
	leafMissCycles float64 = 150
	// ptCacheBytes is the effective cache capacity available to leaf page
	// table entries (paging-structure caches plus the L2 share they win).
	ptCacheBytes uint64 = 256 << 10
	// upperMissProb is the small probability that an upper-level entry
	// misses the paging caches.
	upperMissProb float64 = 0.02
)

// WalkLevels returns the number of page-table levels walked on a miss for
// the given page size: 4 KB pages use the full 4-level x86-64 walk, 2 MB
// pages skip the PTE level, and 1 GB pages skip two levels.
func WalkLevels(s mem.PageSize) int {
	switch s {
	case mem.Size4K:
		return 4
	case mem.Size2M:
		return 3
	case mem.Size1G:
		return 2
	default:
		panic("tlb: invalid page size")
	}
}

// Segment describes one slice of a thread's access distribution: Weight of
// the thread's accesses spread uniformly over Pages distinct pages of size
// Size. Weights across a thread's segments should sum to ≤ 1.
//
// Sequential segments are streamed: they take one TLB miss per page
// (LineBytes/PageSize of accesses) instead of competing for TLB capacity,
// and their walks enjoy perfectly prefetchable leaf PTEs.
type Segment struct {
	Weight     float64
	Pages      float64
	Size       mem.PageSize
	Sequential bool
}

// Assessment is the per-access expected TLB behaviour for one thread in
// one epoch.
type Assessment struct {
	// L1Hit, L2Hit and Miss are per-access probabilities (sum to 1).
	L1Hit float64
	L2Hit float64
	Miss  float64
	// WalkCycles is the expected cycle cost of one page-table walk.
	WalkCycles float64
	// WalkL2Misses is the expected number of L2 cache misses caused by
	// one walk.
	WalkL2Misses float64
	// PTFootprintBytes is the leaf page-table footprint backing the
	// thread's segments; exported for diagnostics.
	PTFootprintBytes uint64
}

// CostPerAccess returns the expected translation cycles added to an
// average access.
func (a Assessment) CostPerAccess() float64 {
	return a.L2Hit*L2HitCycles + a.Miss*a.WalkCycles
}

// RemoteWalkCycles prices the NUMA surcharge of one walk whose leaf page
// tables live on a remote node: every DRAM-bound PTE fetch of the walk
// (WalkL2Misses in expectation) crosses the interconnect to the
// page-table home and pays fabricCycles on top of the DRAM latency
// already in WalkCycles. Walks are serial pointer chases, so no
// memory-level-parallelism discount applies. With local (or replicated)
// page tables the surcharge is zero.
func (a Assessment) RemoteWalkCycles(fabricCycles float64) float64 {
	return a.WalkL2Misses * fabricCycles
}

// WalkDRAMFetches is the expected number of DRAM requests one walk sends
// to the node holding the leaf page tables; the engine accounts them
// into per-node controller and link traffic when page-table locality
// pricing is enabled.
func (a Assessment) WalkDRAMFetches() float64 { return a.WalkL2Misses }

// Model evaluates assessments. Assess runs once per simulated epoch on
// reusable scratch, so a Model must not be shared between concurrently
// running engines.
type Model struct {
	// Assess scratch, reused across epochs.
	work, remaining []Segment
	cover           []float64
}

// NewModel returns a model.
func NewModel() *Model { return &Model{} }

// Assess computes the expected TLB behaviour of a thread whose accesses
// are distributed over segs. The model fills the L1 TLB with the hottest
// pages overall (it is shared across page sizes), then fills each L2 TLB
// class with the hottest remaining pages of that size, assuming uniform
// access within a segment.
func (m *Model) Assess(segs []Segment) Assessment {
	// Separate streamed segments (one miss per page, no capacity
	// competition) from capacity-bound ones.
	work := m.work[:0]
	var totalWeight, seqL1, seqMiss, seqWalkCycles, seqWalkL2 float64
	var ptFootSeq uint64
	for _, s := range segs {
		if s.Weight <= 0 || s.Pages <= 0 {
			continue
		}
		totalWeight += s.Weight
		if s.Sequential {
			missFrac := 64.0 / float64(s.Size) // one miss per page, line-granular accesses
			seqMiss += s.Weight * missFrac
			seqL1 += s.Weight * (1 - missFrac)
			levels := float64(WalkLevels(s.Size))
			// Streamed leaf PTEs are adjacent: walks hit the caches.
			cyc := (levels-1)*upperLevelCycles + leafHitCycles
			seqWalkCycles += s.Weight * missFrac * cyc
			seqWalkL2 += s.Weight * missFrac * (levels - 1) * upperMissProb
			ptFootSeq += uint64(s.Pages * 8)
			continue
		}
		work = append(work, s)
	}
	m.work = work
	if totalWeight <= 0 {
		return Assessment{L1Hit: 1}
	}
	if len(work) == 0 {
		miss := seqMiss / totalWeight
		a := Assessment{L1Hit: 1 - miss, Miss: miss, PTFootprintBytes: ptFootSeq}
		if seqMiss > 0 {
			a.WalkCycles = seqWalkCycles / seqMiss
			a.WalkL2Misses = seqWalkL2 / seqMiss
		}
		return a
	}
	sort.Slice(work, func(i, j int) bool {
		return work[i].Weight/work[i].Pages > work[j].Weight/work[j].Pages
	})

	// Fill L1 with the hottest pages regardless of size.
	l1 := float64(l1Entries)
	var l1Hit float64
	if cap(m.remaining) < len(work) {
		m.remaining = make([]Segment, len(work))
	}
	remaining := m.remaining[:len(work)]
	copy(remaining, work)
	for i := range remaining {
		if l1 <= 0 {
			break
		}
		take := remaining[i].Pages
		if take > l1 {
			take = l1
		}
		frac := take / remaining[i].Pages
		l1Hit += remaining[i].Weight * frac
		remaining[i].Weight *= 1 - frac
		remaining[i].Pages -= take
		l1 -= take
	}

	// Fill each L2 class with the hottest remaining pages of its size.
	budget4K := float64(l2Entries4K)
	budget2M := float64(l2Entries2M)
	budget1G := float64(l2Entries1G)
	var l2Hit float64
	for i := range remaining {
		s := &remaining[i]
		if s.Weight <= 0 || s.Pages <= 0 {
			continue
		}
		var b *float64
		switch s.Size {
		case mem.Size4K:
			b = &budget4K
		case mem.Size2M:
			b = &budget2M
		default:
			b = &budget1G
		}
		if *b <= 0 {
			continue
		}
		take := s.Pages
		if take > *b {
			take = *b
		}
		frac := take / s.Pages
		l2Hit += s.Weight * frac
		s.Weight *= 1 - frac
		s.Pages -= take
		*b -= take
	}

	// Leaf-PTE cache coverage: the paging caches and the L2's share of
	// page-table lines hold PTEs for the hottest pages — far more
	// translations than the TLB itself holds (PTCacheBytes/8 entries).
	// Fill greedily in the same hottest-first order as the TLB, so walks
	// for warm pages (in the PT cache but past TLB reach) stay cheap
	// while walks for genuinely cold pages go to DRAM.
	pteBudget := float64(ptCacheBytes) / 8
	if cap(m.cover) < len(work) {
		m.cover = make([]float64, len(work))
	}
	cover := m.cover[:len(work)]
	for i := range cover {
		cover[i] = 0
	}
	for i, s := range work {
		if pteBudget <= 0 {
			break
		}
		take := s.Pages
		if take > pteBudget {
			take = pteBudget
		}
		cover[i] = take / s.Pages
		pteBudget -= take
	}
	var ptFoot uint64
	for _, s := range work {
		ptFoot += uint64(s.Pages * 8)
	}
	ptFoot += ptFootSeq

	// Expected walk characteristics over the *missing* accesses: weight
	// each segment by its residual (uncovered) weight; remaining[i]
	// corresponds to work[i].
	var missWeight, walkCycles, walkL2Misses float64
	for i, s := range remaining {
		if s.Weight <= 0 {
			continue
		}
		levels := float64(WalkLevels(s.Size))
		pwcHit := cover[i]
		upper := (levels - 1) * (upperLevelCycles + upperMissProb*leafMissCycles)
		leaf := pwcHit*leafHitCycles + (1-pwcHit)*leafMissCycles
		walkCycles += s.Weight * (upper + leaf)
		walkL2Misses += s.Weight * ((1 - pwcHit) + (levels-1)*upperMissProb)
		missWeight += s.Weight
	}

	// Fold in the streamed segments and normalize to per-access
	// probabilities.
	l1Hit += seqL1
	l1Hit /= totalWeight
	l2Hit /= totalWeight
	walkCycles += seqWalkCycles
	walkL2Misses += seqWalkL2
	missWeight += seqMiss
	miss := stats.Clamp(missWeight/totalWeight, 0, 1)
	if l1Hit+l2Hit+miss > 1 {
		l1Hit = stats.Clamp(1-l2Hit-miss, 0, 1)
	}
	if missWeight > 0 {
		walkCycles /= missWeight
		walkL2Misses /= missWeight
	}
	return Assessment{
		L1Hit:            l1Hit,
		L2Hit:            l2Hit,
		Miss:             miss,
		WalkCycles:       walkCycles,
		WalkL2Misses:     walkL2Misses,
		PTFootprintBytes: ptFoot,
	}
}
