package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// OpCosts prices the OS page operations in cycles. Migrations copy data
// and invalidate TLBs; splits only rewrite translations; promotions gather
// scattered 4 KB pages into one 2 MB frame.
type OpCosts struct {
	Migrate4K  float64
	Migrate2M  float64
	Split2M    float64
	Split1G    float64
	PromoteMin float64 // remap cost; per-sub copy costs add Migrate4K each
	// Promote1GMin is the remap cost of gathering 2 MB chunks into one
	// 1 GB page; per-chunk copy costs add Migrate2M for every chunk not
	// already on the target node (the Trident-style ladder's up-rung).
	Promote1GMin float64
	// PTMigrateMin is the fixed cost of re-homing a region's page
	// tables; per-page copy costs add Migrate4K for each 4 KB of
	// page-table memory moved.
	PTMigrateMin float64
}

// DefaultOpCosts returns the evaluation calibration. Migrating a 2 MB page
// is ~100× the cost of a 4 KB page, which is why "Carrefour-2M spends too
// much time migrating large pages" on some workloads (§4.2).
func DefaultOpCosts() OpCosts {
	return OpCosts{
		Migrate4K:    12000,
		Migrate2M:    1.4e6,
		Split2M:      30000,
		Split1G:      250000,
		PromoteMin:   60000,
		Promote1GMin: 500000,
		PTMigrateMin: 50000,
	}
}

// mustFree releases a physical frame whose existence the caller has
// already established from the chunk state it holds; a failure here is a
// bookkeeping bug between vm and mem, not a runtime condition.
func mustFree(p *mem.System, n topo.NodeID, size mem.PageSize) {
	if err := p.Free(n, size); err != nil {
		panic(fmt.Sprintf("vm: %v", err))
	}
}

// mustFreeRun is mustFree for a batch of count same-(node, size) frames
// (mem.FreeRun replays the exact per-call Free sequence).
func mustFreeRun(p *mem.System, n topo.NodeID, size mem.PageSize, count int) {
	if err := p.FreeRun(n, size, count); err != nil {
		panic(fmt.Sprintf("vm: %v", err))
	}
}

// ChunkState is the exported view of a chunk's backing.
type ChunkState uint8

// Exported chunk states.
const (
	Unmapped ChunkState = iota
	Mapped2M
	Mapped4K
	Mapped1G
)

// String names the state.
func (s ChunkState) String() string {
	switch s {
	case Unmapped:
		return "unmapped"
	case Mapped2M:
		return "2M"
	case Mapped4K:
		return "4K"
	case Mapped1G:
		return "1G"
	default:
		return fmt.Sprintf("ChunkState(%d)", uint8(s))
	}
}

// ChunkInfo summarizes one chunk for policies and metrics.
type ChunkInfo struct {
	State      ChunkState
	Node       topo.NodeID // home node (head node for 1G slices)
	MappedSubs int         // mapped 4 KB pages when State == Mapped4K
	GiantHead  int         // head chunk index when State == Mapped1G
}

// ChunkInfo returns the state of chunk ci.
func (r *Region) ChunkInfo(ci int) ChunkInfo {
	c := &r.chunks[ci]
	switch c.state {
	case state2M:
		return ChunkInfo{State: Mapped2M, Node: c.node}
	case state4K:
		return ChunkInfo{State: Mapped4K, Node: c.node, MappedSubs: c.mappedSubs()}
	case state1G:
		return ChunkInfo{State: Mapped1G, Node: r.chunks[c.giantHead].node, GiantHead: c.giantHead}
	default:
		return ChunkInfo{State: Unmapped}
	}
}

// SubNode returns the home node of 4 KB page sub in a split chunk and
// whether it is mapped.
func (r *Region) SubNode(ci, sub int) (topo.NodeID, bool) {
	c := &r.chunks[ci]
	if c.state != state4K || c.subNode == nil || c.subNode[sub] == unmappedNode {
		return 0, false
	}
	return topo.NodeID(c.subNode[sub]), true
}

// MigrateChunk moves a 2 MB-mapped chunk to node. It returns the cycles
// consumed and whether the migration happened (it is skipped when the
// chunk is not 2 MB-mapped, already home, or the target is out of memory).
func (r *Region) MigrateChunk(ci int, to topo.NodeID, costs OpCosts) (float64, bool) {
	c := &r.chunks[ci]
	if c.state != state2M || c.node == to {
		return 0, false
	}
	if err := r.Space.Phys.Allocate(to, mem.Size2M); err != nil {
		return 0, false
	}
	mustFree(r.Space.Phys, c.node, mem.Size2M)
	c.node = to
	r.mutated()
	return costs.Migrate2M, true
}

// MigrateSub moves one 4 KB page of a split chunk to node.
func (r *Region) MigrateSub(ci, sub int, to topo.NodeID, costs OpCosts) (float64, bool) {
	c := &r.chunks[ci]
	if c.state != state4K || c.subNode == nil || c.subNode[sub] == unmappedNode {
		return 0, false
	}
	from := topo.NodeID(c.subNode[sub])
	if from == to {
		return 0, false
	}
	if err := r.Space.Phys.Allocate(to, mem.Size4K); err != nil {
		return 0, false
	}
	mustFree(r.Space.Phys, from, mem.Size4K)
	c.mapSub(sub, to)
	r.mutated()
	return costs.Migrate4K, true
}

// SplitChunk demotes a 2 MB-mapped chunk into 512 4 KB pages on the same
// node (the paper's "split"; no data moves). Accounting restarts at 4 KB
// granularity.
func (r *Region) SplitChunk(ci int, costs OpCosts) (float64, bool) {
	c := &r.chunks[ci]
	if c.state != state2M {
		return 0, false
	}
	node := c.node
	mustFree(r.Space.Phys, node, mem.Size2M)
	c.ensureSubs()
	// One run of 512 frames is the 512 single allocations replayed
	// (mem.System.AllocateRun), and freeing the 2 MB page just made room
	// for all of them.
	if r.Space.Phys.AllocateRun(node, mem.Size4K, SubsPerChunk) != SubsPerChunk {
		panic("vm: split re-allocation failed on the page's own node")
	}
	for i := range c.subNode {
		c.mapSub(i, node)
		c.subAcc[i] = 0
		c.subMask[i] = 0
	}
	c.state = state4K
	c.threadMask = 0
	r.count2M--
	r.count4K += SubsPerChunk
	r.mutated()
	return costs.Split2M, true
}

// InterleaveSubs spreads the 4 KB pages of a split chunk round-robin
// across all nodes starting from a seeded random node, as Carrefour-LP
// does with hot pages after splitting them (Algorithm 1, line 19).
func (r *Region) InterleaveSubs(ci int, rng *stats.Rng, costs OpCosts) float64 {
	c := &r.chunks[ci]
	if c.state != state4K {
		return 0
	}
	nodes := r.Space.Machine.Nodes
	start := rng.Intn(nodes)
	var cycles float64
	for i := range c.subNode {
		if c.subNode[i] == unmappedNode {
			continue
		}
		to := topo.NodeID((start + i) % nodes)
		cyc, _ := r.MigrateSub(ci, i, to, costs)
		cycles += cyc
	}
	return cycles
}

// PromoteChunk gathers the 4 KB pages of a split chunk into a single 2 MB
// page on node, paying a per-page copy for every sub not already there.
// The chunk must have at least minSubs pages mapped (khugepaged fills the
// rest with zero pages, which we charge as copies too).
func (r *Region) PromoteChunk(ci int, to topo.NodeID, minSubs int, costs OpCosts) (float64, bool) {
	c := &r.chunks[ci]
	if c.state != state4K {
		return 0, false
	}
	mapped := c.mappedSubs()
	if mapped < minSubs {
		return 0, false
	}
	if err := r.Space.Phys.Allocate(to, mem.Size2M); err != nil {
		return 0, false
	}
	cycles := costs.PromoteMin
	for i := range c.subNode {
		if c.subNode[i] == unmappedNode {
			continue
		}
		if topo.NodeID(c.subNode[i]) != to {
			cycles += costs.Migrate4K
		}
		mustFree(r.Space.Phys, topo.NodeID(c.subNode[i]), mem.Size4K)
	}
	c.state = state2M
	c.node = to
	c.subNode = nil
	c.runsOK = false
	c.mapped = 0
	c.subAcc = nil
	c.subMask = nil
	c.threadMask = 0
	c.accesses = 0
	r.count4K -= mapped
	r.count2M++
	r.mutated()
	return cycles, true
}

// DominantSubNode returns the node hosting the most mapped 4 KB pages of a
// split chunk (weighted by access counts when available); the natural
// promotion target.
func (r *Region) DominantSubNode(ci int) (topo.NodeID, bool) {
	c := &r.chunks[ci]
	if c.state != state4K || c.subNode == nil {
		return 0, false
	}
	weights := make([]float64, r.Space.Machine.Nodes)
	any := false
	for i, n := range c.subNode {
		if n == unmappedNode {
			continue
		}
		any = true
		w := float64(c.subAcc[i]) + 1
		weights[n] += w
	}
	if !any {
		return 0, false
	}
	best := 0
	for n := range weights {
		if weights[n] > weights[best] {
			best = n
		}
	}
	return topo.NodeID(best), true
}

// MapGiant backs the chunks starting at head with one 1 GB page on node
// (hugetlbfs semantics: established up front, §4.4). A full 1 GB page is
// reserved even when the region's tail is smaller — hugetlbfs packs small
// structures into whole reserved gigantic pages, which is exactly why the
// paper sees "lots of hot small pages coalesced on a single NUMA node".
// All covered chunks must be unmapped.
func (r *Region) MapGiant(head int, node topo.NodeID) error {
	if head%ChunksPerGiant != 0 {
		return fmt.Errorf("vm: 1G mapping must be 1 GB aligned (chunk %d)", head)
	}
	if head >= len(r.chunks) {
		return fmt.Errorf("vm: chunk %d beyond region %s", head, r.Name)
	}
	span := r.giantSpan(head)
	for i := head; i < head+span; i++ {
		if r.chunks[i].state != stateUnmapped {
			return fmt.Errorf("vm: chunk %d already mapped", i)
		}
	}
	if err := r.Space.Phys.Allocate(node, mem.Size1G); err != nil {
		return err
	}
	for i := head; i < head+span; i++ {
		c := &r.chunks[i]
		c.state = state1G
		c.giantHead = head
	}
	r.chunks[head].node = node
	if !r.ptHomeSet {
		// The hugetlbfs reservation also allocates the page tables, on
		// the reserving thread's node.
		r.ptHome = node
		r.ptHomeSet = true
	}
	r.Space.faultCount1G++
	r.count1G++
	r.mutated()
	return nil
}

// PromoteGiant gathers the 2 MB chunks of a 1 GB-aligned span into one
// 1 GB page on the span's dominant node (the up-rung of a 4K/2M/1G
// ladder), paying a per-chunk copy for every chunk not already there.
// All chunks of the span must be 2 MB-mapped.
func (r *Region) PromoteGiant(head int, costs OpCosts) (float64, bool) {
	if head%ChunksPerGiant != 0 || head >= len(r.chunks) {
		return 0, false
	}
	span := r.giantSpan(head)
	weights := make([]float64, r.Space.Machine.Nodes)
	for i := head; i < head+span; i++ {
		c := &r.chunks[i]
		if c.state != state2M {
			return 0, false
		}
		weights[c.node] += float64(c.accesses) + 1
	}
	node := topo.NodeID(0)
	for n := range weights {
		if weights[n] > weights[node] {
			node = topo.NodeID(n)
		}
	}
	if err := r.Space.Phys.Allocate(node, mem.Size1G); err != nil {
		return 0, false
	}
	cycles := costs.Promote1GMin
	for i := head; i < head+span; i++ {
		c := &r.chunks[i]
		if c.node != node {
			cycles += costs.Migrate2M
		}
		mustFree(r.Space.Phys, c.node, mem.Size2M)
		c.state = state1G
		c.giantHead = head
		c.accesses = 0
		c.threadMask = 0
	}
	r.chunks[head].node = node
	r.count2M -= span
	r.count1G++
	r.mutated()
	return cycles, true
}

// giantSpan is the number of chunks a 1 GB page at head covers (the tail
// of a small region covers fewer than ChunksPerGiant).
func (r *Region) giantSpan(head int) int {
	span := ChunksPerGiant
	if head+span > len(r.chunks) {
		span = len(r.chunks) - head
	}
	return span
}

// SplitGiant demotes a 1 GB page into 2 MB pages on the same node.
func (r *Region) SplitGiant(head int, costs OpCosts) (float64, bool) {
	c := &r.chunks[head]
	if c.state != state1G || c.giantHead != head {
		return 0, false
	}
	node := c.node
	span := r.giantSpan(head)
	mustFree(r.Space.Phys, node, mem.Size1G)
	for i := head; i < head+span; i++ {
		cc := &r.chunks[i]
		cc.state = state2M
		cc.node = node
		cc.accesses = 0
		cc.threadMask = 0
		if err := r.Space.Phys.Allocate(node, mem.Size2M); err != nil {
			panic("vm: giant split re-allocation failed on the page's own node")
		}
	}
	r.count1G--
	r.count2M += span
	r.mutated()
	return costs.Split1G, true
}

// Unmap releases every mapped page lying entirely inside the
// region-relative byte range [lo, hi), returning the physical frames to
// the allocator and the chunks to the unmapped state — the munmap half
// of the dynamic-workload event timeline (free and shrink events). A
// 2 MB page only partially covered by the range survives (the OS would
// have to split it first; freeing a region tail at 2 MB granularity is
// how real allocators behave under THP anyway), and a 1 GB page is
// released only when its whole span is covered. Returns the bytes
// released. Subsequent accesses to the range fault and remap it.
func (r *Region) Unmap(lo, hi uint64) uint64 {
	if hi > uint64(len(r.chunks))*uint64(mem.Size2M) {
		hi = uint64(len(r.chunks)) * uint64(mem.Size2M)
	}
	if lo >= hi {
		return 0
	}
	var released uint64
	for ci := int(lo >> chunkShift); ci <= int((hi-1)>>chunkShift); ci++ {
		base := uint64(ci) << chunkShift
		c := &r.chunks[ci]
		switch c.state {
		case state2M:
			if base < lo || base+uint64(mem.Size2M) > hi {
				continue
			}
			mustFree(r.Space.Phys, c.node, mem.Size2M)
			c.state = stateUnmapped
			c.accesses = 0
			c.threadMask = 0
			r.count2M--
			released += uint64(mem.Size2M)
		case state4K:
			// Free maximal same-node runs in one batched call each:
			// mem.FreeRun replays the exact per-call sequence, and the
			// tight loop lets the random-victim cache misses overlap.
			for sub := 0; sub < SubsPerChunk; {
				sa := base + uint64(sub)<<subShift
				if sa < lo || sa+uint64(mem.Size4K) > hi || c.subNode[sub] == unmappedNode {
					sub++
					continue
				}
				node := c.subNode[sub]
				run := sub + 1
				for run < SubsPerChunk && c.subNode[run] == node &&
					base+uint64(run+1)<<subShift <= hi {
					run++
				}
				n := run - sub
				mustFreeRun(r.Space.Phys, topo.NodeID(node), mem.Size4K, n)
				for i := sub; i < run; i++ {
					c.subNode[i] = unmappedNode
					c.subAcc[i] = 0
					c.subMask[i] = 0
				}
				c.runsOK = false
				c.mapped -= int32(n)
				r.count4K -= n
				released += uint64(n) * uint64(mem.Size4K)
				sub = run
			}
		case state1G:
			head := c.giantHead
			if ci != head {
				continue // handled when the loop reaches the head
			}
			span := r.giantSpan(head)
			if base < lo || base+uint64(span)<<chunkShift > hi {
				continue
			}
			mustFree(r.Space.Phys, r.chunks[head].node, mem.Size1G)
			for i := head; i < head+span; i++ {
				cc := &r.chunks[i]
				cc.state = stateUnmapped
				cc.accesses = 0
				cc.threadMask = 0
			}
			r.count1G--
			released += uint64(mem.Size1G)
		}
	}
	if released > 0 {
		r.mutated()
	}
	return released
}

// MarkMutated bumps the region's mapping generation without a mapping
// change, invalidating any caches keyed on Gen. Event timelines use it
// when a distribution-shift event changes how a region is accessed: the
// mapping is intact but every placement census derived from the access
// distribution is stale.
func (r *Region) MarkMutated() { r.mutated() }

// PageAccess is the ground-truth accounting for one mapped page.
type PageAccess struct {
	Page     PageID
	Size     mem.PageSize
	Node     topo.NodeID
	Accesses uint64
	Threads  int
}

// ForEachPage visits every mapped page of the region at its current
// mapping granularity with its cumulative access statistics.
func (r *Region) ForEachPage(f func(PageAccess)) {
	for ci := range r.chunks {
		c := &r.chunks[ci]
		switch c.state {
		case state2M:
			f(PageAccess{
				Page: PageID{r, ci, -1}, Size: mem.Size2M, Node: c.node,
				Accesses: c.accesses, Threads: popcount64(c.threadMask),
			})
		case state1G:
			if c.giantHead != ci {
				continue
			}
			f(PageAccess{
				Page: PageID{r, ci, -1}, Size: mem.Size1G, Node: c.node,
				Accesses: c.accesses, Threads: popcount64(c.threadMask),
			})
		case state4K:
			for sub := range c.subNode {
				if c.subNode[sub] == unmappedNode {
					continue
				}
				f(PageAccess{
					Page: PageID{r, ci, sub}, Size: mem.Size4K, Node: topo.NodeID(c.subNode[sub]),
					Accesses: uint64(c.subAcc[sub]), Threads: popcount64(c.subMask[sub]),
				})
			}
		}
	}
}

// Spans visits the maximal same-node mapped byte spans of [lo, hi)
// (region-relative offsets) in ascending order and returns the number of
// unmapped bytes in the range. Runs of 4 KB pages on one node coalesce
// into a single call, so a query over a split-but-unmigrated chunk costs
// one visit. This is the census primitive behind the analytic engine's
// per-thread home-node distributions (DESIGN.md §4.7).
func (r *Region) Spans(lo, hi uint64, fn func(node topo.NodeID, spanLo, spanHi uint64)) (unmappedBytes uint64) {
	if hi > uint64(len(r.chunks))*uint64(mem.Size2M) {
		hi = uint64(len(r.chunks)) * uint64(mem.Size2M)
	}
	if lo >= hi {
		return 0
	}
	// Pending coalesced span (valid when runHi > runLo).
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
			// Replay the cached coalesced runs instead of scanning all
			// 512 slots. Clipping each run to [a, b) yields exactly the
			// spans the per-sub scan would feed emit (adjacent same-node
			// subs merge identically), and unmapped bytes fall out as the
			// clipped remainder — both byte-exact.
			if !c.runsOK {
				c.buildSubRuns()
			}
			var mapped uint64
			for _, run := range c.subRuns {
				sa := base + uint64(run.lo)<<subShift
				sb := base + uint64(run.hi)<<subShift
				if sa < a {
					sa = a
				}
				if sb > b {
					sb = b
				}
				if sa < sb {
					emit(topo.NodeID(run.node), sa, sb)
					mapped += sb - sa
				}
			}
			unmappedBytes += (b - a) - mapped
		default:
			unmappedBytes += b - a
		}
	}
	if runHi > runLo {
		fn(runNode, runLo, runHi)
	}
	return unmappedBytes
}

// ResetAccessCounters clears ground-truth access accounting (used to
// exclude warmup from measurement intervals).
func (s *AddrSpace) ResetAccessCounters() {
	for _, r := range s.regions {
		for ci := range r.chunks {
			c := &r.chunks[ci]
			c.accesses = 0
			c.threadMask = 0
			for i := range c.subAcc {
				c.subAcc[i] = 0
				c.subMask[i] = 0
			}
		}
	}
}

// MappedBytes returns the total mapped bytes of the region.
func (r *Region) MappedBytes() uint64 {
	var b uint64
	for ci := range r.chunks {
		c := &r.chunks[ci]
		switch c.state {
		case state2M:
			b += uint64(mem.Size2M)
		case state1G:
			if c.giantHead == ci {
				b += uint64(mem.Size1G)
			}
		case state4K:
			b += uint64(c.mappedSubs()) * uint64(mem.Size4K)
		}
	}
	return b
}

// MappedPages returns the number of translations (pages) currently
// backing the region per page size. The counts are maintained
// incrementally (this is on the simulator's per-epoch hot path).
func (r *Region) MappedPages() (n4k, n2m, n1g int) {
	return r.count4K, r.count2M, r.count1G
}

// recountPages recomputes the census by scanning; tests use it to verify
// the incremental counters.
func (r *Region) recountPages() (n4k, n2m, n1g int) {
	for ci := range r.chunks {
		c := &r.chunks[ci]
		switch c.state {
		case state2M:
			n2m++
		case state1G:
			if c.giantHead == ci {
				n1g++
			}
		case state4K:
			n4k += c.mappedSubs()
		}
	}
	return
}
