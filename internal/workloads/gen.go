package workloads

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
)

// BuiltRegion couples a region spec with its virtual-memory region and
// derived geometry.
type BuiltRegion struct {
	Spec RegionSpec
	VM   *vm.Region

	blockBytes uint64
	numBlocks  int
	pages4K    uint64 // total 4 KB pages spanned

	// ownBlocks[t] lists the blocks thread t owns (PrivateBlocked only).
	ownBlocks [][]uint64
	// initPages[t] lists, in ascending order, the 4 KB pages thread t
	// first-touches during the allocation phase. Materialized once at
	// Build so NextAlloc is O(1): the cursor scan it replaces re-derived
	// the owner of every page once per thread, which made the allocation
	// phase O(pages × threads) and dominated whole-run profiles.
	initPages [][]uint32
	// ownerArr maps block → owner when ScatterBlocks: each group of T
	// consecutive blocks is a seeded permutation of all T threads, so
	// ownership is balanced but adjacent blocks belong to unrelated
	// threads.
	ownerArr []int32

	// freed marks a region removed by a Free event; its weight is zero in
	// every phase from the event on and its VM span is unmapped.
	freed bool
}

// owner returns the thread owning block b of a PrivateBlocked region:
// round-robin normally, permuted when ScatterBlocks (unstructured
// layouts).
func (br *BuiltRegion) owner(b uint64, threads int) int {
	if br.ownerArr != nil {
		return int(br.ownerArr[b])
	}
	return int(b % uint64(threads))
}

// Instance is one benchmark instantiated on a machine: regions are mapped,
// per-thread cursors initialized, and generators ready.
type Instance struct {
	Spec    Spec
	Machine *topo.Machine
	Space   *vm.AddrSpace
	Threads int
	Regions []*BuiltRegion

	// cumWeight[p] holds the cumulative region weights of phase p
	// (phase 0 = the spec's base weights).
	cumWeight [][]float64

	// Allocation-phase cursors, one per thread: position in the global
	// first-touch plan (InitOwner/InitMaster regions).
	allocRegion []int
	allocPage   []uint64

	// Streaming cursors per (thread, region).
	streamPos [][]uint64

	// Scratch for FillNodeDists (dist.go), cached so the analytic
	// engine's placement-census refreshes stop allocating after warmup.
	distOwn, distHalo, distAvg []float64

	// appliedEvents counts events already applied and is the timeline's
	// cursor: validation forces ascending boundaries, so Spec.Events
	// fires in declaration order and Spec.Events[appliedEvents] is the
	// next pending event. PhaseAt only advances a thread past an event
	// boundary once the mutation has happened, so threads clamped at the
	// boundary stall (a barrier wait) rather than racing ahead under the
	// pre-event weight tables.
	appliedEvents int
}

// Build instantiates spec for a machine with one thread per core.
func Build(spec Spec, space *vm.AddrSpace, m *topo.Machine) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	threads := m.TotalCores()
	in := &Instance{
		Spec:    spec,
		Machine: m,
		Space:   space,
		Threads: threads,
	}
	for _, rs := range spec.Regions {
		in.Regions = append(in.Regions, in.buildRegion(rs))
	}
	base := make([]float64, len(spec.Regions))
	for i, rs := range spec.Regions {
		base[i] = rs.Weight
	}
	in.cumWeight = [][]float64{cumulate(base)}
	for _, p := range spec.Phases {
		in.cumWeight = append(in.cumWeight, cumulate(p.Weights))
	}
	in.allocRegion = make([]int, threads)
	in.allocPage = make([]uint64, threads)
	for _, br := range in.Regions {
		if br.Spec.SkipInit {
			continue
		}
		br.initPages = make([][]uint32, threads)
		hint := int(br.pages4K)/threads + 16 // ownership is near-balanced
		for t := range br.initPages {
			br.initPages[t] = make([]uint32, 0, hint)
		}
		for p := uint64(0); p < br.pages4K; p++ {
			t := in.initThread(br, p)
			br.initPages[t] = append(br.initPages[t], uint32(p))
		}
	}
	in.streamPos = make([][]uint64, threads)
	for t := range in.streamPos {
		in.streamPos[t] = make([]uint64, len(in.Regions))
	}
	return in, nil
}

// buildRegion maps one region and derives its access geometry; Build
// uses it for every static region and ApplyReadyEvents for regions
// added by Alloc events.
func (in *Instance) buildRegion(rs RegionSpec) *BuiltRegion {
	threads := in.Threads
	r := in.Space.Mmap(rs.Name, rs.Bytes, !rs.FileBacked)
	br := &BuiltRegion{Spec: rs, VM: r}
	br.blockBytes = rs.BlockBytes
	if br.blockBytes == 0 {
		br.blockBytes = rs.Bytes / uint64(threads)
		if br.blockBytes == 0 {
			br.blockBytes = uint64(mem.Size4K)
		}
	}
	br.numBlocks = int(rs.Bytes / br.blockBytes)
	if br.numBlocks == 0 {
		br.numBlocks = 1
		br.blockBytes = rs.Bytes
	}
	br.pages4K = rs.Bytes / uint64(mem.Size4K)
	if br.pages4K == 0 {
		br.pages4K = 1
	}
	if rs.Sharing == PrivateBlocked {
		if rs.ScatterBlocks {
			br.ownerArr = scatterOwners(br.numBlocks, threads, uint64(r.ID))
		}
		br.ownBlocks = make([][]uint64, threads)
		for b := uint64(0); b < uint64(br.numBlocks); b++ {
			t := br.owner(b, threads)
			br.ownBlocks[t] = append(br.ownBlocks[t], b)
		}
	}
	return br
}

// initThread returns the thread that first-touches 4 KB page p of region
// br. The striped pattern assigns 16 KB granules of pages to pseudo-random
// threads, modeling a parallel initialization loop: 4 KB placement is
// balanced across nodes, while the first toucher of any 2 MB chunk — the
// thread that claims it whole under THP — is effectively random.
func (in *Instance) initThread(br *BuiltRegion, p uint64) int {
	switch br.Spec.Init {
	case InitMaster:
		return 0
	case InitOwner:
		block := p * uint64(mem.Size4K) / br.blockBytes
		if block >= uint64(br.numBlocks) {
			block = uint64(br.numBlocks) - 1
		}
		return br.owner(block, in.Threads)
	default: // InitStriped
		h := (p + uint64(br.VM.ID)*1013) * 0x9E3779B97F4A7C15
		h ^= h >> 31
		return int(h % uint64(in.Threads))
	}
}

// hotAccess returns the region's hot-subset access fraction.
func (br *BuiltRegion) hotAccess() float64 {
	if br.Spec.HotAccessFrac > 0 {
		return br.Spec.HotAccessFrac
	}
	return 0.9
}

// scatterOwners assigns each group of `threads` consecutive blocks a
// seeded Fisher-Yates permutation of all threads: balanced ownership with
// pseudo-random adjacency.
func scatterOwners(numBlocks, threads int, seed uint64) []int32 {
	owners := make([]int32, numBlocks)
	perm := make([]int32, threads)
	for g := 0; g*threads < numBlocks; g++ {
		rng := stats.NewRng(seed*1000003 + uint64(g))
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := threads - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		base := g * threads
		for i := 0; i < threads && base+i < numBlocks; i++ {
			owners[base+i] = perm[i]
		}
	}
	return owners
}

// AllocTouch is one first-touch operation of the allocation phase.
type AllocTouch struct {
	Region *BuiltRegion
	Off    uint64
	// Weight is the steady-equivalent accesses this touch represents
	// (initializing the page's contents).
	Weight float64
}

// NextAlloc returns thread t's next first-touch, or ok=false when t has
// finished its share of the allocation phase. Regions are initialized in
// declaration order by their statically assigned threads; the engine's
// time-sliced rounds decide who reaches each 2 MB chunk first. The
// cursor walks the thread's precomputed page list, so each call is O(1).
func (in *Instance) NextAlloc(t int) (AllocTouch, bool) {
	for in.allocRegion[t] < len(in.Regions) {
		br := in.Regions[in.allocRegion[t]]
		if !br.Spec.SkipInit {
			own := br.initPages[t]
			if i := in.allocPage[t]; i < uint64(len(own)) {
				in.allocPage[t] = i + 1
				return in.touch(br, uint64(own[i])), true
			}
		}
		in.allocRegion[t]++
		in.allocPage[t] = 0
	}
	return AllocTouch{}, false
}

func (in *Instance) touch(br *BuiltRegion, p uint64) AllocTouch {
	w := br.Spec.InitTouchWeight
	if w <= 0 {
		w = 128
	}
	return AllocTouch{Region: br, Off: p * uint64(mem.Size4K), Weight: w}
}

// PeekAllocRun returns thread t's current region together with its
// remaining ascending first-touch pages there, without consuming any of
// them — the batched allocation path classifies a leading run of this
// slice and then consumes exactly what it committed via AdvanceAlloc.
// Like NextAlloc, it walks the cursor past SkipInit and exhausted
// regions (that advance is idempotent, so peeking stays side-effect free
// from the caller's point of view); ok=false means t's allocation work
// is complete.
func (in *Instance) PeekAllocRun(t int) (*BuiltRegion, []uint32, bool) {
	for in.allocRegion[t] < len(in.Regions) {
		br := in.Regions[in.allocRegion[t]]
		if !br.Spec.SkipInit {
			own := br.initPages[t]
			if i := in.allocPage[t]; i < uint64(len(own)) {
				return br, own[i:], true
			}
		}
		in.allocRegion[t]++
		in.allocPage[t] = 0
	}
	return nil, nil, false
}

// AdvanceAlloc consumes k first-touches previously returned by
// PeekAllocRun (k must not exceed the returned slice's length).
func (in *Instance) AdvanceAlloc(t, k int) {
	in.allocPage[t] += uint64(k)
}

// TouchWeight returns the steady-equivalent access weight NextAlloc
// would assign a first-touch of br.
func TouchWeight(br *BuiltRegion) float64 {
	w := br.Spec.InitTouchWeight
	if w <= 0 {
		w = 128
	}
	return w
}

// AllocDone reports whether thread t has finished its allocation work.
func (in *Instance) AllocDone(t int) bool {
	return in.allocRegion[t] >= len(in.Regions)
}

// AllocAllDone reports whether the whole allocation phase is complete;
// the engine holds steady state behind this barrier, like the init
// barriers of the real programs.
func (in *Instance) AllocAllDone() bool {
	for t := 0; t < in.Threads; t++ {
		if !in.AllocDone(t) {
			return false
		}
	}
	return true
}

// SteadyAccess is one steady-state access request.
type SteadyAccess struct {
	RegionIdx int
	Off       uint64
}

// cumulate builds a cumulative weight table.
func cumulate(w []float64) []float64 {
	out := make([]float64, len(w))
	var c float64
	for i, v := range w {
		c += v
		out[i] = c
	}
	return out
}

// PhaseAt returns the phase index active at the given progress fraction.
// Event boundaries count as phase boundaries, but only once the event
// has been applied: a thread clamped at an unapplied event boundary
// stays in its current phase (and therefore stalls at the boundary, see
// NextPhaseBoundary) until every thread arrives and the mutation runs.
func (in *Instance) PhaseAt(workFrac float64) int {
	p := 0
	for i, ph := range in.Spec.Phases {
		if workFrac >= ph.AtWorkFrac {
			p = i + 1
		}
	}
	for i := 0; i < in.appliedEvents; i++ {
		// The epsilon matches ApplyReadyEvents' firing gate: a thread
		// whose clamped progress sits a rounding error below the boundary
		// still enters the post-event phase once the event has applied.
		if workFrac+eventEps >= in.Spec.Events[i].AtWorkFrac {
			p = i + 1
		}
	}
	if p >= len(in.cumWeight) {
		p = len(in.cumWeight) - 1
	}
	return p
}

// NumPhases returns the number of phases (≥1).
func (in *Instance) NumPhases() int { return len(in.cumWeight) }

// NextSteady draws thread t's next steady-state access in phase 0.
func (in *Instance) NextSteady(t int, rng *stats.Rng) SteadyAccess {
	return in.NextSteadyPhase(t, rng, 0)
}

// NextSteadyPhase draws thread t's next steady-state access under the
// region weights of the given phase, using the thread's deterministic
// stream rng.
func (in *Instance) NextSteadyPhase(t int, rng *stats.Rng, phase int) SteadyAccess {
	ri := in.pickRegion(rng, phase)
	return SteadyAccess{RegionIdx: ri, Off: in.SteadyOffset(t, ri, rng)}
}

// SteadyOffset draws one steady-state access offset for thread t within
// region ri — the within-region half of NextSteadyPhase. The analytic
// engine uses it directly to give its deterministically thinned IBS
// samples the same spatial distribution as the sampled engine's accesses
// (DESIGN.md §4.7).
func (in *Instance) SteadyOffset(t, ri int, rng *stats.Rng) uint64 {
	br := in.Regions[ri]
	var off uint64
	switch br.Spec.Sharing {
	case SharedAll:
		off = in.sharedOffset(br, t, ri, rng)
	default:
		off = in.privateOffset(br, t, ri, rng)
	}
	if off >= br.Spec.Bytes {
		off = br.Spec.Bytes - 1
	}
	return off &^ 63 // align to cache line
}

// RegionWeight returns region ri's normalized share of steady-state
// accesses in the given phase. Regions added by events after the given
// phase have zero weight in it (the phase's table predates them).
func (in *Instance) RegionWeight(phase, ri int) float64 {
	cum := in.cumWeight[phase]
	if ri >= len(cum) {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	w := cum[ri]
	if ri > 0 {
		w -= cum[ri-1]
	}
	return w / total
}

func (in *Instance) pickRegion(rng *stats.Rng, phase int) int {
	cum := in.cumWeight[phase]
	u := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// sharedOffset draws an offset in a SharedAll region according to its
// locality class. The hot subset of a ZipfHot region is the contiguous
// prefix, so its 4 KB pages coalesce onto few 2 MB pages — the paper's
// hot-page mechanism.
func (in *Instance) sharedOffset(br *BuiltRegion, t, ri int, rng *stats.Rng) uint64 {
	switch br.Spec.Loc {
	case cache.Stream:
		pos := in.streamPos[t][ri]
		in.streamPos[t][ri] = (pos + 64) % br.Spec.Bytes
		return pos
	case cache.ZipfHot:
		hotBytes := uint64(float64(br.Spec.Bytes) * br.Spec.HotFrac)
		if hotBytes < 64 {
			hotBytes = 64
		}
		if rng.Bernoulli(br.hotAccess()) {
			return uint64(rng.Int63n(int64(hotBytes)))
		}
		return uint64(rng.Int63n(int64(br.Spec.Bytes)))
	default:
		if br.Spec.ZipfS > 0 {
			elems := int(br.Spec.Bytes / 64)
			if elems < 1 {
				elems = 1
			}
			return uint64(rng.Zipf(elems, br.Spec.ZipfS)) * 64
		}
		return uint64(rng.Int63n(int64(br.Spec.Bytes)))
	}
}

// privateOffset draws an offset in a PrivateBlocked region: the thread's
// own blocks, except for HaloFrac accesses into another thread's halo.
func (in *Instance) privateOffset(br *BuiltRegion, t, ri int, rng *stats.Rng) uint64 {
	if br.Spec.HaloFrac > 0 && rng.Bernoulli(br.Spec.HaloFrac) {
		// Unstructured-mesh neighbor: a random other thread's halo.
		other := rng.Intn(in.Threads)
		if in.Threads > 1 && other == t {
			other = (other + 1) % in.Threads
		}
		block := in.randomBlockOf(br, other, rng)
		halo := br.Spec.HaloBytes
		if halo == 0 || halo*2 > br.blockBytes {
			halo = br.blockBytes / 4
		}
		w := uint64(rng.Int63n(int64(2 * halo)))
		if w < halo {
			return block*br.blockBytes + w // leading halo
		}
		return block*br.blockBytes + br.blockBytes - (w - halo) - 64 // trailing halo
	}
	block := in.randomBlockOf(br, t, rng)
	base := block * br.blockBytes
	switch br.Spec.Loc {
	case cache.Stream:
		pos := in.streamPos[t][ri]
		in.streamPos[t][ri] = (pos + 64) % br.blockBytes
		return base + pos
	case cache.ZipfHot:
		hot := uint64(float64(br.blockBytes) * br.Spec.HotFrac)
		if hot < 64 {
			hot = 64
		}
		if rng.Bernoulli(br.hotAccess()) {
			return base + uint64(rng.Int63n(int64(hot)))
		}
		return base + uint64(rng.Int63n(int64(br.blockBytes)))
	default:
		return base + uint64(rng.Int63n(int64(br.blockBytes)))
	}
}

func (in *Instance) randomBlockOf(br *BuiltRegion, t int, rng *stats.Rng) uint64 {
	own := br.ownBlocks[t]
	if len(own) == 0 {
		// Fewer blocks than threads: share block t mod numBlocks.
		return uint64(t % br.numBlocks)
	}
	return own[rng.Intn(len(own))]
}

// ThreadShare returns the fraction of a region's bytes thread t touches in
// steady state (ownership share plus halos for PrivateBlocked; everything
// for SharedAll).
func (in *Instance) ThreadShare(ri int) float64 {
	br := in.Regions[ri]
	if br.Spec.Sharing == SharedAll {
		return 1
	}
	own := float64(br.numBlocks/in.Threads) * float64(br.blockBytes)
	if own == 0 {
		own = float64(br.blockBytes)
	}
	share := own / float64(br.Spec.Bytes)
	if br.Spec.HaloFrac > 0 {
		share *= 1.3 // halo visits widen the footprint somewhat
	}
	return stats.Clamp(share, 0, 1)
}

// PageCounts is a region's current translation census (maintained by the
// engine once per epoch, O(1) per region via vm counters).
type PageCounts struct {
	N4K, N2M, N1G int
}

// TLBSegments converts the address space's translation census into TLB
// model segments, splitting hot subsets so the TLB fill model can
// prioritize them. Every thread sees the same segments: per-thread
// reach is folded in through ThreadShare.
func (in *Instance) TLBSegments(counts []PageCounts) []tlb.Segment {
	segs := make([]tlb.Segment, 0, len(in.Regions)*2)
	for ri, br := range in.Regions {
		w := br.Spec.Weight
		if w <= 0 {
			continue
		}
		share := in.ThreadShare(ri)
		c := counts[ri]
		bytesBySize := [3]float64{
			float64(c.N4K) * float64(mem.Size4K),
			float64(c.N2M) * float64(mem.Size2M),
			float64(c.N1G) * float64(mem.Size1G),
		}
		sizes := [3]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}
		total := bytesBySize[0] + bytesBySize[1] + bytesBySize[2]
		if total <= 0 {
			// Nothing mapped yet: assume 4 KB pages over the full span.
			total = float64(br.Spec.Bytes)
			bytesBySize[0] = total
		}
		if br.Spec.Loc == cache.ZipfHot {
			// Attribute 4 KB-mapped bytes to the hot subset first: when a
			// policy splits pages, it splits the hot (heavily sampled)
			// ones, so the small-page census *is* the hot set. This is
			// what lets the conservative component see TLB pressure
			// return after a reactive split.
			ha := br.hotAccess()
			hotLeft := total * share * br.Spec.HotFrac
			var hotSegs, coldSegs []tlb.Segment
			var hotTotal, coldTotal float64
			for si, b := range bytesBySize {
				tb := b * share
				if tb <= 0 {
					continue
				}
				hb := tb
				if hb > hotLeft {
					hb = hotLeft
				}
				hotLeft -= hb
				cb := tb - hb
				if hb > 0 {
					hotSegs = append(hotSegs, tlb.Segment{Weight: hb, Pages: max1(hb / float64(sizes[si])), Size: sizes[si]})
					hotTotal += hb
				}
				if cb > 0 {
					coldSegs = append(coldSegs, tlb.Segment{Weight: cb, Pages: max1(cb / float64(sizes[si])), Size: sizes[si]})
					coldTotal += cb
				}
			}
			for _, s := range hotSegs {
				s.Weight = w * ha * s.Weight / hotTotal
				segs = append(segs, s)
			}
			for _, s := range coldSegs {
				s.Weight = w * (1 - ha) * s.Weight / coldTotal
				segs = append(segs, s)
			}
			continue
		}
		for si, b := range bytesBySize {
			if b <= 0 {
				continue
			}
			frac := b / total
			pages := b / float64(sizes[si]) * share
			if pages < 1 {
				pages = 1
			}
			if br.Spec.Loc == cache.Stream {
				segs = append(segs, tlb.Segment{Weight: w * frac, Pages: pages, Size: sizes[si], Sequential: true})
			} else {
				segs = append(segs, tlb.Segment{Weight: w * frac, Pages: pages, Size: sizes[si]})
			}
		}
	}
	return segs
}

// CacheProfile returns the per-access cache level probabilities for region
// ri (identical for all threads: ownership shares are symmetric), with the
// region's DRAM floor applied. Private regions compete for the node's L3
// (one copy per thread); shared regions are cached once per node and serve
// all its cores, so they see the full L3.
func (in *Instance) CacheProfile(ri int, hier cache.Hierarchy) cache.LevelProbs {
	br := in.Regions[ri]
	footprint := uint64(float64(br.Spec.Bytes) * in.ThreadShare(ri))
	if footprint == 0 {
		footprint = br.Spec.Bytes
	}
	sharers := in.Machine.CoresPerNode
	if br.Spec.Sharing == SharedAll {
		sharers = 1
	}
	p := hier.Profile(footprint, br.Spec.Loc, br.Spec.HotFrac, br.Spec.HotAccessFrac, sharers)
	p = ApplyDRAMFloor(p, br.Spec.DRAMFloor)
	return ApplyDRAMCap(p, br.Spec.DRAMCap)
}

// ApplyDRAMCap bounds the DRAM probability from above, crediting the
// excess to the L3 (write-allocated, cache-warm data).
func ApplyDRAMCap(p cache.LevelProbs, cap float64) cache.LevelProbs {
	if cap <= 0 {
		return p
	}
	d := p.DRAM()
	if d <= cap {
		return p
	}
	p.L3 += d - cap
	return p
}

// ApplyDRAMFloor raises the DRAM probability to at least floor, scaling
// the cache-hit probabilities down proportionally; it models coherence
// misses on write-shared data.
func ApplyDRAMFloor(p cache.LevelProbs, floor float64) cache.LevelProbs {
	d := p.DRAM()
	if floor <= d {
		return p
	}
	hit := p.L1 + p.L2 + p.L3
	if hit <= 0 {
		return p
	}
	scale := (1 - floor) / hit
	return cache.LevelProbs{L1: p.L1 * scale, L2: p.L2 * scale, L3: p.L3 * scale}
}

// String renders a one-line summary.
func (in *Instance) String() string {
	return fmt.Sprintf("%s on machine %s (%d threads, %d regions)",
		in.Spec.Name, in.Machine.Name, in.Threads, len(in.Regions))
}

// max1 clamps a page count to at least one page.
func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

// NextPhaseBoundary returns the work fraction at which the phase after
// `phase` begins, or 0 when `phase` is the last. Event boundaries are
// phase boundaries too: the engine's settle clamp stops every thread
// exactly at the next event's AtWorkFrac, which is the event timeline's
// work-conservation invariant — no thread performs work past an event
// under the pre-event workload shape.
func (in *Instance) NextPhaseBoundary(phase int) float64 {
	if phase < len(in.Spec.Phases) {
		return in.Spec.Phases[phase].AtWorkFrac
	}
	if phase < len(in.Spec.Events) {
		return in.Spec.Events[phase].AtWorkFrac
	}
	return 0
}

// HasEvents reports whether the workload carries an event timeline.
func (in *Instance) HasEvents() bool { return len(in.Spec.Events) > 0 }

// NextEventBoundary returns the work fraction of the earliest pending
// (not yet applied) event, or 0 when the timeline is drained.
func (in *Instance) NextEventBoundary() float64 {
	if in.appliedEvents == len(in.Spec.Events) {
		return 0
	}
	return in.Spec.Events[in.appliedEvents].AtWorkFrac
}

// eventEps absorbs the floating-point slack between a thread's clamped
// progress and the exact boundary product; it is far above accumulated
// rounding error and far below any plausible gap between boundaries.
const eventEps = 1e-9

// ApplyReadyEvents drains every pending event whose boundary the
// slowest thread has reached (clock monotonicity: events fire in
// boundary order, and never before all threads arrive) and applies its
// mutation through the vm surface. It returns the number of events
// applied so the engine knows to grow its per-region state.
func (in *Instance) ApplyReadyEvents(minWorkFrac float64) int {
	applied := 0
	for in.appliedEvents < len(in.Spec.Events) {
		ev := in.Spec.Events[in.appliedEvents]
		if minWorkFrac+eventEps < ev.AtWorkFrac {
			break
		}
		in.applyEvent(ev)
		in.appliedEvents++
		applied++
	}
	return applied
}

// regionIndex resolves an event's region name; Validate guarantees it
// exists by the time the event fires.
func (in *Instance) regionIndex(name string) int {
	for ri, br := range in.Regions {
		if br.Spec.Name == name {
			return ri
		}
	}
	panic(fmt.Sprintf("workloads: %s event names unknown region %q", in.Spec.Name, name))
}

// applyEvent performs one event's mutation and installs its weight
// table as the next phase. All mutations go through the vm surface
// (Mmap/Unmap/MarkMutated), so Region.Gen bumps keep the analytic
// engine's placement census coherent.
func (in *Instance) applyEvent(ev EventSpec) {
	switch {
	case ev.Alloc != nil:
		rs := *ev.Alloc
		// Mid-run allocations fault in lazily from steady-state accesses,
		// exactly like a real malloc'd arena: there is no init phase to
		// replay after the barrier.
		rs.SkipInit = true
		in.Regions = append(in.Regions, in.buildRegion(rs))
		for t := range in.streamPos {
			in.streamPos[t] = append(in.streamPos[t], 0)
		}
		// The allocation phase is long over; keep the init cursors parked
		// past the grown region table so AllocAllDone stays true.
		for t := range in.allocRegion {
			in.allocRegion[t] = len(in.Regions)
		}
	case ev.FreeRegion != "":
		br := in.Regions[in.regionIndex(ev.FreeRegion)]
		br.VM.Unmap(0, br.Spec.Bytes)
		br.freed = true
	case ev.ShrinkRegion != "":
		br := in.Regions[in.regionIndex(ev.ShrinkRegion)]
		newBytes := uint64(float64(br.Spec.Bytes)*ev.ShrinkToFrac) &^ 63
		if newBytes < 64 {
			newBytes = 64
		}
		br.VM.Unmap(newBytes, br.Spec.Bytes)
		br.Spec.Bytes = newBytes
		br.pages4K = newBytes / uint64(mem.Size4K)
		if br.pages4K == 0 {
			br.pages4K = 1
		}
		// Unmap bumps Gen only when it released something; the shrink
		// changes Spec.Bytes (and with it every SteadyOffset distribution
		// and the cache profile) even when the dropped tail was never
		// mapped, so the generation must move regardless.
		br.VM.MarkMutated()
	case ev.Shift != nil:
		br := in.Regions[in.regionIndex(ev.Shift.Region)]
		br.Spec.HotFrac = ev.Shift.HotFrac
		br.Spec.HotAccessFrac = ev.Shift.HotAccessFrac
		br.Spec.ZipfS = ev.Shift.ZipfS
		// The mapping did not change but the access distribution did;
		// bump the region generation so analytic censuses rebuild.
		br.VM.MarkMutated()
	}
	// The event's weight vector becomes the next phase's mix; sync the
	// per-region Weight fields so TLBSegments sees the live shares.
	for ri, w := range ev.Weights {
		in.Regions[ri].Spec.Weight = w
	}
	in.cumWeight = append(in.cumWeight, cumulate(ev.Weights))
}
