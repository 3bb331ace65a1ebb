package sim

// Analytic expectation-mode pricing (DESIGN.md §4.7). The paper's
// phenomena — controller overload, LAR collapse, imbalance — are all
// expectations over access distributions, so the per-sample Monte-Carlo
// loop of priceSteady can be replaced by exact expected-value
// accumulation per (thread, region): expected DRAM fetches from the
// cache profile, expected walk and remote-walk cycles from the TLB
// assessment, and the per-home-node traffic split from the region's
// placement census (workloads.FillNodeDists). Policies still see a
// hardware-shaped IBS stream: the expected sample counts are thinned
// deterministically into real resolved pages.
//
// The analytic stage honors the same contracts as the sampled one: it
// reads only the epoch snapshot and per-thread state, writes only
// per-thread scratch plus commutative access accounting, allocates
// nothing once scratch is warm, and produces byte-identical results for
// any worker count (the merge stage is shared).

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ibs"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
)

// Mode selects the engine's steady-state pricing implementation.
type Mode uint8

const (
	// ModeSampled is the Monte-Carlo loop of DESIGN.md §4.2: steadySamples
	// priced accesses per thread per epoch.
	ModeSampled Mode = iota
	// ModeAnalytic is the closed-form expectation engine of DESIGN.md
	// §4.7; steady-state cost stops scaling with the sampled access
	// count, making full-scale machine-B sweeps interactive.
	ModeAnalytic
)

// String names the mode as the CLI's -mode flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeSampled:
		return "sampled"
	case ModeAnalytic:
		return "analytic"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode resolves a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "sampled":
		return ModeSampled, nil
	case "analytic":
		return ModeAnalytic, nil
	default:
		return ModeSampled, fmt.Errorf("sim: unknown mode %q (want sampled or analytic)", s)
	}
}

// memoKey identifies the inputs one per-thread cache entry was built
// from: an engine generation counter (geomGen or contGen) plus the
// thread's workload phase, whose weight table scales every aggregate.
type memoKey struct {
	gen   uint64
	phase int
}

// invalidMemoKey never matches a live generation (geomGen/contGen are
// monotone counters from zero), so fresh or resized caches rebuild.
var invalidMemoKey = memoKey{gen: ^uint64(0), phase: -1}

// threadGeom is one thread's incremental pricing cache (DESIGN.md
// §4.10). The geometry term — per-node aggregates of the thread's
// per-region expectations that depend only on the mappings, the cache
// profiles and the phase weights — is keyed on (geomGen, phase). The
// contention application — the epoch's latency matrices, TLB
// assessment and churn costs folded over those aggregates — produces
// exactly the outputs the merge stage consumes and is keyed on
// (contGen, phase). Between invalidations, pricing an epoch is two key
// compares and a few O(nodes) copies.
type threadGeom struct {
	key memoKey // (geomGen, phase) the aggregates were built at

	// Geometry aggregates. base is Σ w·(fixed per-access cycles: extra +
	// IBS interrupt + cache-hit levels); wSum is Σ w over active
	// regions; dataW is Σ w·(p.L3 + p.DRAM); homeAgg[h] is Σ w·pd·
	// dist[h] with unmapped first-touch mass folded onto the thread's
	// own node, homeSum its total; wPTHome[h] is Σ w by effective
	// page-table home (PT pricing only); thinRate[ri] is the expected
	// thinned IBS samples per epoch (K·w·pd·RecordRate), kept per
	// region so quiescent epochs can accumulate carries cheaply;
	// churnW[k] is the weight of engine.churnRIs[k].
	base     float64
	wSum     float64
	dataW    float64
	homeSum  float64
	homeAgg  []float64
	wPTHome  []float64 // nil unless page-table pricing is on
	thinRate []float64
	churnW   []float64

	// Contention application outputs, in the merge stage's per-K-samples
	// normalization, keyed on appKey.
	appKey      memoKey
	sumCost     float64 // expected cycles per access
	homeCnt     []float64
	walkCnt     []float64 // nil unless page-table pricing is on
	local       float64
	remote      float64
	dataL2      float64
	ptwL2       float64
	tlbMiss     float64
	churn       float64
	markFaulter bool

	// Merge-flush memo (DESIGN.md §4.11): the scaled products the merge
	// stage pushes into the controller/fabric models and the run counters
	// are functions of the contention outputs above and the epoch's flush
	// scale only, so they are keyed on (appKey, scale). In a converged
	// steady stretch neither moves epoch over epoch and mergeSteady
	// replays the memoized delta; a float product is deterministic, so
	// the replay is byte-identical to recomputing (the identity harness
	// covers the memo because Config.Reference disables it).
	flushKey   memoKey
	flushScale float64
	physFlush  []float64 // homeCnt[h]·scale
	walkFlush  []float64 // walkCnt[h]·scale; nil unless PT pricing is on
	localX     float64
	remoteX    float64
	dataL2X    float64
	ptwL2X     float64
	tlbMissX   float64
	churnX     float64
}

// censusBacklogEpochs bounds the deferred-census backlog: the census is
// a freshness mechanism (per-page access recency behind PAMUP/NHP/PSP),
// so a long quiescent stretch owes at most this many epochs' worth of
// catch-up draws, not one per deferred epoch. IBS thinning is NOT
// capped: sample volume is a hardware-rate contract, so ibsCarry
// accumulates exactly and materializes in full.
const censusBacklogEpochs = 8

// buildGeometry rebuilds thread t's geometry aggregates for the given
// phase. Everything here is a function of the epoch's mapping-derived
// snapshot (profiles, placement census, PT homes) and the phase weight
// table — precisely the inputs geomGen counts.
func (e *Engine) buildGeometry(t, src, phase int, ibsPerAccess, K float64, g *threadGeom) {
	spec := e.wl.Spec
	rr := e.ibs.RecordRate
	for h := range g.homeAgg {
		g.homeAgg[h] = 0
	}
	for h := range g.wPTHome {
		g.wPTHome[h] = 0
	}
	var base, wSum, dataW float64
	for ri := range e.wl.Regions {
		w := e.wl.RegionWeight(phase, ri)
		p := e.profiles[ri]
		pd := p.DRAM()
		g.thinRate[ri] = K * w * pd * rr
		if w <= 0 {
			g.thinRate[ri] = 0
			continue
		}
		base += w * (spec.ExtraCyclesPerAccess + ibsPerAccess +
			p.L1*e.hier.L1Cycles + p.L2*e.hier.L2Cycles + p.L3*e.hier.L3Cycles)
		wSum += w
		dataW += w * (p.L3 + pd)
		if e.ptHome != nil {
			home := int(e.ptHome[ri])
			if home < 0 {
				home = src
			}
			g.wPTHome[home] += w
		}
		if pd > 0 {
			dist := e.aDist[ri][t*e.nodes : (t+1)*e.nodes]
			mapped := false
			for h, f := range dist {
				if f == 0 {
					continue
				}
				mapped = true
				g.homeAgg[h] += w * pd * f
			}
			if !mapped {
				// Nothing the thread touches is mapped yet: first-touch
				// placement lands those pages on the accessor's node.
				g.homeAgg[src] += w * pd
			}
		}
	}
	g.base, g.wSum, g.dataW = base, wSum, dataW
	var homeSum float64
	for _, a := range g.homeAgg {
		homeSum += a
	}
	g.homeSum = homeSum
	for k, ri := range e.churnRIs {
		g.churnW[k] = e.wl.RegionWeight(phase, int(ri))
	}
}

// applyContention folds the epoch's contention inputs — the combined
// controller+fabric latency row, the fabric-only walk row, the TLB
// assessment and the per-region churn costs — over thread t's geometry
// aggregates. Each term is linear in the aggregates (including the
// remote-walk surcharge: RemoteWalkCycles is linear in its weight), so
// the per-region loop of the old implementation collapses into a few
// O(nodes) dot products whose outputs the merge stage consumes as-is.
func (e *Engine) applyContention(src int, latRow, fabRow []float64, mlp float64, assess tlb.Assessment, K float64, g *threadGeom) {
	// Translation expectation shared by every region: L2-TLB hits plus
	// the location-blind walk cost (the per-region NUMA surcharge of
	// page-table pricing is added below).
	transBase := assess.CostPerAccess()
	sumCost := g.base + g.wSum*transBase
	var dramLat float64
	for h, a := range g.homeAgg {
		g.homeCnt[h] = K * a
		dramLat += a * latRow[h]
	}
	sumCost += dramLat * mlp
	g.local = K * g.homeAgg[src]
	g.remote = K * (g.homeSum - g.homeAgg[src])
	g.tlbMiss = K * g.wSum * assess.Miss
	g.ptwL2 = K * g.wSum * assess.Miss * assess.WalkL2Misses
	g.dataL2 = K * g.dataW
	if g.wPTHome != nil {
		wd := assess.Miss * assess.WalkDRAMFetches()
		var remoteWalk float64
		for h, w := range g.wPTHome {
			g.walkCnt[h] = K * w * wd
			if h != src {
				remoteWalk += w * assess.RemoteWalkCycles(fabRow[h])
			}
		}
		sumCost += assess.Miss * remoteWalk
	}
	var churnCycles float64
	mark := false
	for k, ri := range e.churnRIs {
		w := g.churnW[k]
		if w <= 0 {
			continue
		}
		cc := e.churnPer[ri]
		sumCost += w * cc
		churnCycles += K * w * cc
		mark = true
	}
	g.churn = churnCycles
	g.markFaulter = mark
	g.sumCost = sumCost
}

// priceAnalytic prices one thread's steady-state epoch in closed form.
// All accumulations are kept in the same per-K-samples normalization as
// the sampled loop (counts here are expectations over K = steadySamples
// accesses), so the shared merge stage and settleThread apply unchanged
// and the flushed totals agree with the sampled engine in expectation.
//
// The epoch's cost scales with what changed (DESIGN.md §4.10): the
// geometry aggregates rebuild only when a mapping or the phase moved,
// the contention application only when a latency/churn input moved, and
// on a quiescent epoch the census draws and IBS thinning are deferred
// into censusDue/ibsCarry — the whole epoch is then two key compares,
// two O(nodes) copies and the settle arithmetic.
func (e *Engine) priceAnalytic(t, epoch int, epochCycles float64, assess tlb.Assessment, shared bool) {
	px := e.beginPricing(t, epoch)
	s := px.s
	g := s.geom
	K := float64(e.samples)

	gKey := memoKey{gen: e.geomGen, phase: px.phase}
	if e.cfg.Reference || g.key != gKey {
		e.buildGeometry(t, px.src, px.phase, px.ibsPerAccess, K, g)
		g.key = gKey
		g.appKey = invalidMemoKey
	}
	aKey := memoKey{gen: e.contGen, phase: px.phase}
	if e.cfg.Reference || g.appKey != aKey {
		e.applyContention(px.src, px.latRow, px.fabRow, px.mlp, assess, K, g)
		g.appKey = aKey
	}
	copy(s.homeCnt, g.homeCnt)
	if s.walkCnt != nil {
		copy(s.walkCnt, g.walkCnt)
	}
	s.markFaulter = g.markFaulter

	var faultDirect float64
	if e.epochQuiet {
		// Quiescent epoch: every input is provably unchanged and no
		// daemon will look at telemetry before the next tick, so the
		// census and the thinned sample stream are deferred — counts
		// accumulate here and materialize on the next non-quiescent
		// epoch (or at thread finish), conserving sample volume.
		if s.censusDue < censusBacklogEpochs*analyticCensus {
			s.censusDue += analyticCensus
		}
		for ri, r := range g.thinRate {
			s.ibsCarry[ri] += r
		}
	} else {
		// Ground-truth census: a handful of resolved (not priced) draws
		// per epoch keeps the per-page accounting behind PAMUP/NHP/PSP
		// populated and materializes lazily faulted regions, at a
		// fraction of the sampled loop's cost.
		rng := &s.rng
		draws := analyticCensus + s.censusDue
		s.censusDue = 0
		for i := 0; i < draws; i++ {
			acc := e.wl.NextSteadyPhase(t, rng, px.phase)
			_, fcost := e.resolveDraw(s, int32(acc.RegionIdx), t, px.core, acc.Off, shared)
			faultDirect += fcost
		}
		faultDirect += e.thinIBS(t, px.phase, px.src, px.core, s, rng, K, shared)
	}

	if !e.settleThread(t, px.phase, px.startBudget, epochCycles, g.sumCost, faultDirect, px.work) {
		return
	}
	s.local, s.remote, s.dataL2 = g.local, g.remote, g.dataL2
	s.ptwL2, s.tlbMiss, s.churn = g.ptwL2, g.tlbMiss, g.churn
	if e.epochQuiet && s.finished {
		// The thread just finished inside a quiescent stretch: drain its
		// deferred telemetry now so the final flush carries it. Fault
		// costs of late-materialized draws reach the fault log (the
		// mapping genuinely happens) but no longer charge a budget.
		e.drainDeferred(t, px.phase, px.src, px.core, s, shared)
	}
}

// drainDeferred materializes a thread's deferred census draws and
// thinned IBS backlog. thinIBS with K=0 emits exactly the accumulated
// integer carry per region and keeps the fractional remainder.
func (e *Engine) drainDeferred(t, phase, src int, core topo.CoreID, s *threadScratch, shared bool) {
	rng := &s.rng
	for i := 0; i < s.censusDue; i++ {
		acc := e.wl.NextSteadyPhase(t, rng, phase)
		e.resolveDraw(s, int32(acc.RegionIdx), t, core, acc.Off, shared)
	}
	s.censusDue = 0
	e.thinIBS(t, phase, src, core, s, rng, 0, shared)
}

// thinIBS is the deterministic IBS thinning stage: per region, it emits
// the expected number of DRAM-serviced samples (K·weight·P(DRAM)·
// RecordRate, with fractions carried across epochs in ibsCarry), drawing
// each sample's offset from the thread's own access distribution and
// resolving it against the real page table — policies keep seeing a
// hardware-shaped stream of genuine pages at the volume real hardware
// would deliver. It returns the direct fault cycles of draws that hit
// unmapped pages (zero once a workload is fully faulted in).
func (e *Engine) thinIBS(t, phase, src int, core topo.CoreID, s *threadScratch, rng *stats.Rng, K float64, shared bool) float64 {
	rr := e.ibs.RecordRate
	if rr <= 0 {
		return 0
	}
	// Size the sample buffer for the whole draw first: a fresh engine's
	// per-thread buffers would otherwise regrow from nil by doubling.
	// The counts are the same expressions the draw loop evaluates.
	total := 0
	for ri := range e.wl.Regions {
		total += int(K*e.wl.RegionWeight(phase, ri)*e.profiles[ri].DRAM()*rr + s.ibsCarry[ri])
	}
	//lpnuma:alloc-ok one growth per draw at most; capacity stabilizes after warm-up (TestAnalyticEpochZeroAlloc)
	s.samples = slices.Grow(s.samples, total)
	var faultDirect float64
	for ri := range e.wl.Regions {
		w := e.wl.RegionWeight(phase, ri)
		pd := e.profiles[ri].DRAM()
		exp := K*w*pd*rr + s.ibsCarry[ri]
		n := int(exp)
		s.ibsCarry[ri] = exp - float64(n)
		for j := 0; j < n; j++ {
			off := e.wl.SteadyOffset(t, ri, rng)
			res, fcost := e.resolveDraw(s, int32(ri), t, core, off, shared)
			faultDirect += fcost
			//lpnuma:alloc-ok scratch append; capacity stabilizes after warm-up (TestAnalyticEpochZeroAlloc)
			s.samples = append(s.samples, ibs.Sample{
				Page: res.Page, Off: off, Thread: int32(t), Core: int32(core),
				AccessorNode: uint8(src), HomeNode: uint8(res.Node), DRAM: true,
			})
		}
	}
	return faultDirect
}

// resolveDraw resolves one ground-truth draw exactly as the sampled loop
// resolves an access: mapped pages record their accounting in place
// (vm.PeekRecord's commutative updates), unmapped pages plan a fault
// with read-your-writes against the thread's pending faults and defer
// the mutation to the merge stage.
func (e *Engine) resolveDraw(s *threadScratch, ri int32, t int, core topo.CoreID, off uint64, shared bool) (vm.AccessResult, float64) {
	br := e.wl.Regions[ri]
	res, st := br.VM.PeekRecord(off, t, shared)
	if st == vm.PeekMapped {
		return res, 0
	}
	res, fcost := s.resolveFault(br.VM, ri, core, off)
	if fcost > 0 {
		//lpnuma:alloc-ok scratch append; faults drain each epoch and capacity stabilizes
		s.faultLog = append(s.faultLog, accessRec{off: off, cost: fcost, region: ri})
	}
	if st == vm.PeekUnmappedChunk {
		//lpnuma:alloc-ok scratch append; drains each epoch like faultLog
		s.acctLog = append(s.acctLog, accessRec{off: off, region: ri})
	}
	return res, fcost
}
