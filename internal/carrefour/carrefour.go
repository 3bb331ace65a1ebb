// Package carrefour implements the NUMA-aware page placement algorithm of
// Dashti et al. [ASPLOS'13] as the paper uses it (§3.1): IBS samples are
// gathered per page; a page whose samples all come from one node is
// migrated to that node, and a page accessed from multiple nodes is
// interleaved (migrated to a random node). Global thresholds on hardware
// counters gate the whole mechanism so that applications without NUMA
// problems are left alone.
//
// The same placement pass runs at whatever granularity pages currently
// have — 2 MB chunks under THP ("Carrefour-2M"), 4 KB pages otherwise —
// which is exactly why it cannot fix the hot-page effect or page-level
// false sharing without the large-page extensions of package core.
//
// The policy pipeline runs one decision interval a second through
// TickWith, on the telemetry view it shares with the other daemons. The
// thresholds are package constants (DESIGN.md §4.4), and PassCost is the
// per-pass overhead that every sample-driven daemon charges.
package carrefour

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ibs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
)

// The daemon's calibration, as used throughout the evaluation.
const (
	// minSamplesPerPage is the minimum evidence before acting on a page.
	minSamplesPerPage int = 2
	// memIntensityMin gates the whole daemon: below this DRAM-accesses-
	// per-access ratio the application is not memory-bound and Carrefour
	// stays off.
	memIntensityMin float64 = 0.002
	// Carrefour engages when controller imbalance exceeds
	// imbalanceTriggerPct or LAR falls below larTriggerPct.
	imbalanceTriggerPct float64 = 35
	larTriggerPct       float64 = 80
	// maxOpsPerInterval bounds page operations per pass.
	maxOpsPerInterval int = 8192
	// passCycles is the fixed cost of one daemon pass and cyclesPerSample
	// the bookkeeping cost of processing one sample.
	passCycles      float64 = 200000
	cyclesPerSample float64 = 60
)

// PassCost is the overhead cycles of one daemon pass over n IBS samples:
// a fixed cost plus a per-sample scan cost. Every sample-driven daemon
// (Carrefour, Carrefour-LP, the Trident ladder, page-table migration)
// charges it once per interval.
func PassCost(n int) float64 { return passCycles + float64(n)*cyclesPerSample }

// pageKey identifies a page across intervals.
type pageKey struct {
	region int
	chunk  int
	sub    int
}

// Carrefour is the daemon state.
type Carrefour struct {
	interleaved map[pageKey]bool
	scratch     GroupScratch

	migrations  uint64
	interleaves uint64
	activations uint64
}

// New builds a daemon.
func New() *Carrefour {
	return &Carrefour{interleaved: make(map[pageKey]bool)}
}

// Stats reports cumulative operation counts.
func (c *Carrefour) Stats() (migrations, interleaves, activations uint64) {
	return c.migrations, c.interleaves, c.activations
}

// TickWith runs one decision interval on a telemetry view the caller
// gathered; the policy pipeline gates the period.
func (c *Carrefour) TickWith(env *sim.Env, v sim.View) float64 {
	w := v.Window
	overhead := PassCost(len(v.Samples))
	if w.MemIntensity < memIntensityMin {
		return overhead
	}
	if w.ImbalancePct < imbalanceTriggerPct && w.LARPct > larTriggerPct {
		return overhead
	}
	c.activations++
	overhead += c.Apply(env, v.Samples)
	return overhead
}

// Apply performs one placement pass over the given samples. It returns
// the cycles spent migrating.
func (c *Carrefour) Apply(env *sim.Env, samples []ibs.Sample) float64 {
	return c.ApplyGroups(env, c.scratch.Group(samples, env.Machine.Nodes))
}

// ApplyGroups performs one placement pass over samples already grouped
// by Group (Carrefour-LP calls this as Algorithm 1's line 20, reusing
// the interval's grouping when it still names current pages). It
// returns the cycles spent migrating.
func (c *Carrefour) ApplyGroups(env *sim.Env, groups []PageGroup) float64 {
	var cycles float64
	ops := 0
	for i := range groups {
		if ops >= maxOpsPerInterval {
			break
		}
		g := &groups[i]
		if g.Count < minSamplesPerPage {
			continue
		}
		key := pageKey{g.Page.Region.ID, g.Page.Chunk, g.Page.Sub}
		if single, node := g.SingleNode(); single {
			cyc, moved := migrate(g.Page, node, env)
			cycles += cyc
			if moved {
				c.migrations++
				ops++
				delete(c.interleaved, key)
			}
			continue
		}
		// Multi-node page: interleave by moving to a random node, once.
		if c.interleaved[key] {
			continue
		}
		to := topo.NodeID(env.Rng.Intn(env.Machine.Nodes))
		cyc, moved := migrate(g.Page, to, env)
		cycles += cyc
		if moved || currentNode(g.Page) == to {
			c.interleaved[key] = true
			c.interleaves++
			ops++
		}
	}
	return cycles
}

// migrate moves one page (chunk or sub) to node, skipping pages whose
// granularity changed since sampling.
func migrate(p vm.PageID, to topo.NodeID, env *sim.Env) (float64, bool) {
	info := p.Region.ChunkInfo(p.Chunk)
	if p.Sub < 0 {
		if info.State != vm.Mapped2M {
			return 0, false
		}
		return p.Region.MigrateChunk(p.Chunk, to, env.Costs)
	}
	if info.State != vm.Mapped4K {
		return 0, false
	}
	return p.Region.MigrateSub(p.Chunk, p.Sub, to, env.Costs)
}

func currentNode(p vm.PageID) topo.NodeID {
	info := p.Region.ChunkInfo(p.Chunk)
	if p.Sub >= 0 {
		if n, ok := p.Region.SubNode(p.Chunk, p.Sub); ok {
			return n
		}
	}
	return info.Node
}

// PageGroup aggregates the DRAM-serviced samples of one page.
type PageGroup struct {
	Page   vm.PageID
	Count  int
	Weight float64
	// NodeWeight is the sampled access weight per accessor node.
	NodeWeight []float64
	// NodeMask has bit n set when a sample from accessor node n was seen.
	NodeMask uint64
	// ThreadMask records which threads were seen (64 max).
	ThreadMask uint64
	// LocalWeight is the weight of samples served node-locally.
	LocalWeight float64
}

// SingleNode reports whether all samples came from one accessor node.
// It reads NodeMask, which equals the set of nodes with NodeWeight > 0
// because Group clamps every sample weight to w > 0 — except for a NaN
// weight (never produced by the sampler), whose node is in the mask
// while its NaN NodeWeight is not > 0.
func (g *PageGroup) SingleNode() (bool, topo.NodeID) {
	m := g.NodeMask
	if m == 0 || m&(m-1) != 0 {
		return false, 0
	}
	return true, topo.NodeID(bits.TrailingZeros64(m))
}

// Threads counts distinct sampled threads.
func (g *PageGroup) Threads() int {
	n := 0
	for m := g.ThreadMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// GroupScratch owns the reusable state behind Group. Daemons group
// 10⁴-10⁵ samples every decision interval; a persistent scratch turns
// the per-tick count tables, sample records, groups and node-weight
// slab into warm reused memory instead of a fresh multi-MB allocation
// burst per tick. The zero value is ready to use. Returned groups alias
// the scratch and stay valid only until the next Group call.
type GroupScratch struct {
	regions []regionCounts // indexed by region ID
	recs    []groupRec
	groups  []PageGroup
	weights []float64
	slot    [subSlots]int32
	present [subWords]uint64
}

// regionCounts is one region's dense per-chunk table. Between Group
// calls every entry is zero and r is nil.
type regionCounts struct {
	r      *vm.Region
	counts []int32
	lo, hi int // touched chunk range, valid while r != nil
}

// groupRec is one DRAM sample reduced to what its group accumulates.
type groupRec struct {
	w    float64
	sub1 uint16 // Sub+1: 0 for a whole 2 MB/1 GB chunk, 1..512 for a 4 KB page
	node uint8
	tl   uint8 // thread%64 in bits 0-5, bit 6 when the thread sets a mask bit, bit 7 when local
}

const (
	subSlots  = 1 + vm.SubsPerChunk // Sub+1 values: the whole chunk plus its 4 KB pages
	subWords  = (subSlots + 63) / 64
	recThread = 1 << 6
	recLocal  = 1 << 7
)

// Group buckets DRAM-serviced samples by page, in a deterministic order
// (region, chunk, sub). Only DRAM samples are considered, so that
// decisions "are not affected by pages that are easily cached" (§3.2.1).
// It does no steady-state allocation once the scratch is warm.
//
// It is a counting sort bucketed by chunk: DRAM samples are counted
// into a dense per-region table indexed by chunk, the counts become
// offsets in (region ID, chunk) order, and each sample is scattered
// stably into a compact record at its chunk's offset. Each chunk's
// pages then take group slots in ascending sub order, and each group
// sums its own samples in sample order. So the output order and every
// floating-point sum match a map-and-sort grouping exactly. Region IDs
// must identify regions uniquely, as they do within one address space.
func (gs *GroupScratch) Group(samples []ibs.Sample, nodes int) []PageGroup {
	if nodes > 64 {
		panic(fmt.Sprintf("carrefour: %d nodes overflow the 64-bit node mask", nodes))
	}
	// Count DRAM samples per chunk.
	n := 0
	for i := range samples {
		s := &samples[i]
		if !s.DRAM {
			continue
		}
		if int(s.AccessorNode) >= nodes || s.Page.Sub < -1 || s.Page.Sub >= subSlots-1 {
			panic(fmt.Sprintf("carrefour: sample outside the grouping key space (node %d of %d, sub %d)", s.AccessorNode, nodes, s.Page.Sub))
		}
		rc := gs.region(s.Page.Region)
		c := s.Page.Chunk
		if c >= len(rc.counts) {
			rc.counts = append(rc.counts, make([]int32, c+1-len(rc.counts))...)
		}
		if rc.r == nil {
			rc.r, rc.lo, rc.hi = s.Page.Region, c, c
		} else {
			rc.lo, rc.hi = min(rc.lo, c), max(rc.hi, c)
		}
		rc.counts[c]++
		n++
	}
	// Counts become start offsets in (region ID, chunk) order.
	off := int32(0)
	for ri := range gs.regions {
		rc := &gs.regions[ri]
		if rc.r == nil {
			continue
		}
		counts := rc.counts[rc.lo : rc.hi+1]
		for c, k := range counts {
			counts[c] = off
			off += k
		}
	}
	// Scatter stably; afterwards each count is its chunk's end offset.
	gs.recs = slices.Grow(gs.recs[:0], n)
	recs := gs.recs[:n]
	for i := range samples {
		s := &samples[i]
		if !s.DRAM {
			continue
		}
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		// A negative thread sets a mask bit only when it is a multiple of
		// 64, as 1<<uint(Thread%64) does.
		var tl uint8
		if t := s.Thread % 64; t >= 0 {
			tl = uint8(t) | recThread
		}
		if s.Local() {
			tl |= recLocal
		}
		counts := gs.regions[s.Page.Region.ID].counts
		pos := &counts[s.Page.Chunk]
		recs[*pos] = groupRec{w: w, sub1: uint16(s.Page.Sub + 1), node: s.AccessorNode, tl: tl}
		*pos++
	}
	// Count each chunk's pages, so the groups and their node weights are
	// sized once rather than grown.
	total, start := 0, int32(0)
	for ri := range gs.regions {
		rc := &gs.regions[ri]
		if rc.r == nil {
			continue
		}
		for _, end := range rc.counts[rc.lo : rc.hi+1] {
			if end != start {
				total += gs.markPages(recs[start:end])
				gs.present = [subWords]uint64{}
				start = end
			}
		}
	}
	gs.groups = slices.Grow(gs.groups[:0], total)
	gs.weights = slices.Grow(gs.weights[:0], total*nodes)
	groups, weights := gs.groups[:total], gs.weights[:total*nodes]
	clear(weights)
	// Group each chunk's records, resetting the tables as they drain.
	next, start := 0, int32(0)
	for ri := range gs.regions {
		rc := &gs.regions[ri]
		if rc.r == nil {
			continue
		}
		counts := rc.counts[rc.lo : rc.hi+1]
		for c, end := range counts {
			counts[c] = 0
			if end != start {
				next = gs.groupChunk(groups, weights, next, recs[start:end], vm.PageID{Region: rc.r, Chunk: rc.lo + c}, nodes)
				start = end
			}
		}
		rc.r = nil
	}
	return groups
}

// region returns r's count table, growing the region index on first
// sight of an ID.
func (gs *GroupScratch) region(r *vm.Region) *regionCounts {
	if r.ID >= len(gs.regions) {
		gs.regions = append(gs.regions, make([]regionCounts, r.ID+1-len(gs.regions))...)
	}
	return &gs.regions[r.ID]
}

// markPages marks the subs of one chunk's records in present and
// returns how many distinct pages they name.
func (gs *GroupScratch) markPages(recs []groupRec) int {
	for i := range recs {
		s := recs[i].sub1
		gs.present[s>>6] |= 1 << (s & 63)
	}
	n := 0
	for _, m := range gs.present {
		n += bits.OnesCount64(m)
	}
	return n
}

// groupChunk fills the groups of one chunk's records from groups[next]
// on and returns the next free index: pages take slots in ascending sub
// order, then every record accumulates into its page's group in sample
// order.
func (gs *GroupScratch) groupChunk(groups []PageGroup, weights []float64, next int, recs []groupRec, page vm.PageID, nodes int) int {
	gs.markPages(recs)
	for wi := range gs.present {
		for m := gs.present[wi]; m != 0; m &= m - 1 {
			s := wi<<6 | bits.TrailingZeros64(m)
			gs.slot[s] = int32(next)
			page.Sub = s - 1
			g := &groups[next]
			g.Page, g.NodeWeight = page, weights[next*nodes:(next+1)*nodes:(next+1)*nodes]
			g.Count, g.Weight, g.NodeMask, g.ThreadMask, g.LocalWeight = 0, 0, 0, 0, 0
			next++
		}
		gs.present[wi] = 0
	}
	for i := range recs {
		r := &recs[i]
		g := &groups[gs.slot[r.sub1]]
		g.Count++
		g.Weight += r.w
		g.NodeWeight[r.node] += r.w
		g.NodeMask |= 1 << r.node
		if r.tl&recThread != 0 {
			g.ThreadMask |= 1 << (r.tl & 63)
		}
		if r.tl&recLocal != 0 {
			g.LocalWeight += r.w
		}
	}
	return next
}
