// Package sim is the execution engine: it advances the benchmark's
// threads through their access streams epoch by epoch, pricing every
// access through the TLB, cache, memory-controller and interconnect
// models, at full fidelity during allocation phases (every page fault is
// taken individually, with lagged page-table-lock contention) and by
// statistical sampling in steady state (each epoch prices a fixed number
// of representative accesses per thread and scales thread progress by the
// measured average cost).
//
// Contention is resolved with a lagged fixed point: controller and link
// latencies for epoch t come from epoch t-1's request rates, mirroring the
// feedback delay of real queueing (DESIGN.md §4.1).
//
// Because all cross-thread coupling is lagged, threads are independent
// *within* an epoch by construction, and the engine exploits that: the
// steady-state pricing of all threads runs as a read-only parallel stage
// over per-thread scratch (per-thread RNG streams are already split by
// (epoch, thread)), and the shared models are then updated by a serial
// merge stage that walks threads in index order. Results are
// byte-identical for any worker count (DESIGN.md §4.6).
package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/ibs"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/thp"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The evaluation calibration. Every result in EXPERIMENTS.md comes from
// this one model, so these are constants rather than Config fields;
// Config.Hash still serializes them (with ibs.DefaultConfig) into every
// content address, so changing one moves every cell key.
const (
	// epochSeconds is the simulation quantum.
	epochSeconds float64 = 0.05
	// steadySamples is the number of priced accesses per thread per
	// steady epoch in ModeSampled (and the K the analytic engine's
	// expected counts are scaled to).
	steadySamples int = 320
	// analyticCensus is the number of ground-truth census draws per
	// thread per steady epoch in ModeAnalytic: resolved (not priced)
	// accesses that keep the per-page accounting behind PAMUP/NHP/PSP
	// populated and materialize lazy mappings. ModeSampled's priced
	// accesses are their own census.
	analyticCensus int = 8
	// allocRoundCycles is the simulated-time slice each thread gets per
	// allocation round before the engine rotates to the next thread.
	// Interleaving by time (not by touch count) reproduces the race of
	// parallel initialization: a thread stuck in an expensive fault falls
	// behind while threads skipping already-mapped pages sprint ahead and
	// claim the next chunks.
	allocRoundCycles float64 = 250000
	// maxAllocPerEpoch bounds one thread's allocation touches per epoch.
	maxAllocPerEpoch int = 50000
	// maxSimSeconds aborts runaway simulations.
	maxSimSeconds float64 = 900
)

// Config holds what callers vary per run; the calibration is fixed
// (see the constants above).
type Config struct {
	// Mode selects the steady-state pricing implementation: ModeSampled
	// (the default) prices steadySamples representative accesses per
	// thread per epoch; ModeAnalytic accumulates the same quantities in
	// closed form per (thread, region) and thins the expected event
	// counts into a deterministic IBS sample stream (DESIGN.md §4.7).
	// Allocation phases always run at full fidelity regardless of mode.
	Mode Mode
	// WorkScale multiplies the workload's WorkPerThread (0 = 1.0); the
	// benchmark harness uses fractional scales for quick regeneration
	// passes.
	WorkScale float64
	// Seed drives all randomness.
	Seed uint64

	// Reference runs the engine's reference paths instead of its
	// optimized ones (DESIGN.md §4.10–4.11): every analytic geometry,
	// contention and merge memo rebuilds each epoch, the allocation
	// phase faults every page individually through vm.Access instead of
	// committing batched spans, and policy pipelines run due-gated hooks
	// even when their gate reports no pending work. Each optimization
	// must be a pure evaluation-order change, so results are
	// byte-identical with the switch on or off — the identity harness
	// (identity_test.go) compares the two with == across a matrix of
	// cells — and, like Pool, the field is excluded from the content
	// address (Hash).
	Reference bool

	// Pool, when non-nil, is the worker-token budget shared with the
	// sweep scheduler: the engine opportunistically borrows free tokens
	// as extra pricing workers and returns them after each epoch, so one
	// -j knob governs total host parallelism with no oversubscription.
	// Without a pool the pricing stage uses GOMAXPROCS workers, capped at
	// the runnable threads. The worker count changes only wall-clock
	// time, never results, so the pool is excluded from Hash.
	Pool *parallel.Pool
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// Hash is the configuration's content address: FNV-1a over an explicit
// serialization, stable across processes and Go versions. It covers the
// calibration (the constants above and ibs.DefaultConfig) and every
// field except Pool and Reference, which cannot change results
// (enforced by test). runcache's TestKeyCoversEveryConfigField checks
// the coverage by reflection, and TestCfgHashPinned pins the addresses
// existing cache logs were written under, so a recalibration fails there.
func (c Config) Hash() uint64 {
	ib := ibs.DefaultConfig()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%g|%d|%d|%g|%d|%g|%g|%d|%g|%g|%g|%d",
		c.Mode, epochSeconds, steadySamples, analyticCensus,
		allocRoundCycles, maxAllocPerEpoch, maxSimSeconds,
		c.WorkScale, c.Seed,
		ib.Rate, ib.RecordRate, ib.CyclesPerSample, ib.MaxPerNode)
	return h.Sum64()
}

// OS is the policy-side interface: a policy assembles the THP setting and
// daemons (khugepaged, Carrefour, Carrefour-LP) for one run.
type OS interface {
	// Name labels the policy in reports.
	Name() string
	// Setup is called once after the address space exists and before the
	// first access; policies install their THP subsystem here.
	Setup(env *Env)
	// Tick is called at the end of every epoch; policies run their
	// daemons at their own intervals and return overhead cycles, which
	// the engine steals from application budgets in the next epoch.
	Tick(env *Env, now float64) float64
}

// DaemonScheduler is an optional OS extension consumed by the analytic
// engine's quiescence detection (DESIGN.md §4.10). NextDaemonDue
// returns the earliest simulated time (seconds) at which a Tick call
// may perform daemon work — consume telemetry, mutate mappings, or
// charge overhead cycles; a Tick invoked strictly before that time
// must be a pure no-op. Implementations must evaluate "due" with
// exactly the comparison their Tick uses to gate work, so the engine's
// deferral decision and the policy's firing decision never disagree.
// Policies that do not implement the interface are treated as always
// due, which disables quiescent epochs but changes nothing else.
type DaemonScheduler interface {
	NextDaemonDue(now float64) float64
}

// Env is the hardware/OS context handed to policies.
type Env struct {
	Machine *topo.Machine
	Phys    *mem.System
	Fabric  *interconnect.Fabric
	Space   *vm.AddrSpace
	Sampler *ibs.Sampler
	// THP is set by policies that run one (nil under pure 4 KB policies).
	THP *thp.THP
	// Costs prices page operations.
	Costs vm.OpCosts
	// Rng is the policy-side random stream (page interleaving).
	Rng *stats.Rng
	// PageTables, when set by a policy at Setup, enables NUMA-aware
	// page-table pricing: walks whose leaf PTEs live off the accessing
	// core's node pay the interconnect latency to the page-table home,
	// and walk DRAM fetches are accounted into per-node traffic. Nil
	// (the default, and all the paper's policies) keeps the legacy
	// location-blind walk pricing.
	PageTables *PTConfig

	engine *Engine
}

// Reference reports whether the run uses the engine's reference paths
// (Config.Reference); policy pipelines read it to run due-gated hooks
// unconditionally.
func (env *Env) Reference() bool { return env.engine.cfg.Reference }

// PTConfig configures NUMA-aware page-table placement pricing.
type PTConfig struct {
	// Replicated prices every walk as node-local (a full Mitosis-style
	// page-table replica per node); the replication cost itself is
	// charged on the fault path via vm.AddrSpace.PTReplicas.
	Replicated bool
}

// Snapshot captures cumulative counters so policies can compute
// per-interval (window) metrics.
type Snapshot struct {
	Counters     perf.Counters
	FaultCycles  []float64
	CtrlRequests []float64
	Cycles       float64
}

// Snapshot returns the current cumulative state.
func (env *Env) Snapshot() Snapshot {
	e := env.engine
	fc := env.Space.FaultCyclesAll()
	for c, extra := range e.churnFault {
		fc[c] += extra
	}
	return Snapshot{
		Counters:     e.counters,
		FaultCycles:  fc,
		CtrlRequests: env.Phys.TotalRequests(),
		Cycles:       e.nowCycles,
	}
}

// WindowMetrics are the hardware-visible interval metrics Algorithm 1
// consumes.
type WindowMetrics struct {
	LARPct           float64
	ImbalancePct     float64
	PTWSharePct      float64
	MaxFaultSharePct float64
	MemIntensity     float64
	DRAMAccesses     float64
}

// WindowScratch holds the reusable difference buffers behind Window so
// policy daemons that tick every few epochs do not allocate two slices
// per interval. The zero value is ready to use.
type WindowScratch struct {
	rates, diff []float64
}

// Window computes metrics for the interval between two snapshots using
// the scratch's buffers.
func (ws *WindowScratch) Window(from, to Snapshot) WindowMetrics {
	d := to.Counters.Sub(from.Counters)
	var m WindowMetrics
	m.LARPct = d.LARPct()
	m.PTWSharePct = d.PTWL2MissSharePct()
	m.MemIntensity = d.MemoryIntensity()
	m.DRAMAccesses = d.DRAMAccesses()
	ws.rates = resize(ws.rates, len(to.CtrlRequests))
	for i := range ws.rates {
		ws.rates[i] = to.CtrlRequests[i]
		if i < len(from.CtrlRequests) {
			ws.rates[i] -= from.CtrlRequests[i]
		}
	}
	m.ImbalancePct = stats.ImbalancePct(ws.rates)
	window := to.Cycles - from.Cycles
	if window > 0 {
		ws.diff = resize(ws.diff, len(to.FaultCycles))
		for i := range ws.diff {
			ws.diff[i] = to.FaultCycles[i]
			if i < len(from.FaultCycles) {
				ws.diff[i] -= from.FaultCycles[i]
			}
		}
		m.MaxFaultSharePct = perf.MaxFaultSharePct(ws.diff, window)
	}
	return m
}

// resize returns buf with exactly n elements, reusing its storage when
// the capacity allows.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Result summarizes one run.
type Result struct {
	Workload string
	Policy   string
	Machine  string

	// RuntimeSeconds is the simulated completion time (the paper's
	// performance metric: improvements are runtime ratios).
	RuntimeSeconds float64
	TimedOut       bool
	Epochs         int

	Counters     perf.Counters
	LARPct       float64
	ImbalancePct float64
	PTWSharePct  float64
	// MaxFaultSharePct is the maximum per-core fraction of time in the
	// page-fault handler; MaxCoreFaultSeconds is the corresponding
	// absolute time (Table 1's "time spent in page fault handler").
	MaxFaultSharePct    float64
	MaxCoreFaultSeconds float64

	PageMetrics perf.PageMetrics

	DaemonOverheadCycles float64
	IBSSamplesTaken      uint64
	FaultCounts          [3]uint64 // 4K, 2M, 1G
}

// accessRec is one deferred steady-state access touching an unmapped
// page: ground-truth accounting for mapped pages is folded into the
// parallel stage itself (vm.PeekRecord's commutative atomic updates), so
// only fault mapping (cost > 0) and accounting whose granularity depends
// on a pending fault ever reach the serial replay.
type accessRec struct {
	off    uint64
	cost   float64 // fault handler cycles priced; 0 for accounting-only records
	region int32
}

// pendingFault is a page this thread has already faulted in the current
// epoch's pricing stage, so repeated touches resolve to the same mapping
// (read-your-writes) instead of being priced as fresh faults.
type pendingFault struct {
	region int32
	ci     int32
	sub    int32 // -1 when the fault mapped the whole chunk (2 MB)
	node   topo.NodeID
}

// threadScratch is one thread's reusable pricing state. Everything the
// steady-state sampling loop touches lives here or in the engine's
// read-only epoch snapshot, which is what makes the loop allocation-free
// and safe to run concurrently with other threads' loops.
type threadScratch struct {
	rng        stats.Rng
	homeCnt    []float64 // unscaled DRAM requests per home node
	walkCnt    []float64 // unscaled walk DRAM fetches per PT home node (PT pricing only)
	samples    []ibs.Sample
	faultLog   []accessRec // fresh faults to replay via ApplyFault
	acctLog    []accessRec // unmapped-chunk accounting to replay after faults
	pendFaults []pendingFault
	ibsCarry   []float64 // per-region fractional thinned samples (ModeAnalytic)
	// geom is the thread's incremental pricing cache (DESIGN.md §4.10,
	// ModeAnalytic only): geometry aggregates keyed on the geometry
	// generation and the applied contention outputs keyed on the
	// contention generation.
	geom *threadGeom
	// censusDue counts ground-truth census draws deferred by quiescent
	// epochs, materialized on the next non-quiescent epoch (or at thread
	// finish). Bounded: the census is a freshness mechanism, so the
	// backlog saturates at censusBacklogEpochs epochs' worth.
	censusDue int

	// pricing outputs consumed by the merge stage
	scale        float64
	realAccesses float64
	local        float64
	remote       float64
	dataL2       float64
	ptwL2        float64
	tlbMiss      float64
	churn        float64
	markFaulter  bool
	flush        bool // false when the thread's budget died on fault time
	finished     bool
	ran          bool
}

// Engine runs one (machine, workload, policy) simulation.
type Engine struct {
	cfg     Config
	machine *topo.Machine
	wl      *workloads.Instance
	os      OS
	env     *Env

	hier     cache.Hierarchy
	tlbModel *tlb.Model
	rng      *stats.Rng
	ibs      ibs.Config // the sampler's calibration (ibs.DefaultConfig)
	// maxAlloc bounds one thread's allocation touches per epoch
	// (maxAllocPerEpoch; a test lowers it to force many alloc epochs).
	maxAlloc int
	// samples is the priced accesses per thread per steady epoch
	// (steadySamples; tests raise it for variance-reduced references).
	samples int
	// workers caps the pricing stage's worker count (0 = Pool or
	// GOMAXPROCS; tests pin it to check worker-count invariance).
	workers int

	threads        int
	nodes          int
	stolen         []float64 // cycles owed (daemon overhead, budget overrun)
	progress       []float64
	finishTime     []float64
	nowCycles      float64
	counters       perf.Counters
	churnFault     []float64 // synthetic (churn) fault cycles per core
	overhead       float64
	resetAtBarrier bool

	// Per-epoch read-only snapshot, refreshed by runEpoch before any
	// pricing: page census, cache profiles, per-region churn cost, and
	// the flat [src][home] DRAM latency table that replaces the two
	// model calls per priced access.
	profiles []cache.LevelProbs
	counts   []workloads.PageCounts
	churnPer []float64
	lat      []float64 // lat[src*nodes+home] = controller + fabric cycles
	memLat   []float64
	// Page-table locality snapshot (allocated only when the policy set
	// Env.PageTables): fabric-only latency matrix for walk surcharges,
	// and each region's page-table home this epoch (-1 = local: either
	// replicated everywhere or not yet allocated).
	fabLat []float64
	ptHome []int32
	// Analytic-mode placement census (ModeAnalytic only): per region,
	// the per-thread home-node access distribution (aDist[ri][t*nodes+h],
	// workloads.FillNodeDists) and the vm mapping generation it was
	// computed at, so the O(mapped pages) refresh runs only when a
	// policy actually moved something.
	aDist    [][]float64
	aDistGen []uint64

	// Incremental pricing state (DESIGN.md §4.10, ModeAnalytic only).
	// geomGen counts observable changes to the inputs of the per-thread
	// geometry term: any region's mapping generation, the region count,
	// or the phase table (events rewrite weights without touching any
	// mapping). contGen additionally counts changes to the contention
	// inputs applied on top — the lagged latency matrices and the
	// per-region churn cost. Per-thread caches compare against these
	// to skip rebuilds; refreshContention compares the current epoch's
	// inputs against the prev* copies to advance contGen.
	geomGen     uint64
	contGen     uint64
	lastGeomGen uint64
	snapGen     []uint64 // per-region Gen at the last snapshot scan
	numPhases   int      // phase-table length at the last snapshot scan
	assessValid bool
	assessCache tlb.Assessment
	prevLat     []float64
	prevFab     []float64
	prevChurn   []float64
	churnRIs    []int32 // regions with ChurnPer1K > 0, in index order
	// epochQuiet marks the current epoch as quiescent: no geometry or
	// contention input moved, no event fired, no allocation ran, and no
	// policy daemon is due at this epoch's tick — so pricing reuses the
	// cached aggregates wholesale and defers census draws and IBS
	// thinning into censusDue/ibsCarry. quietEpochs counts them.
	epochQuiet  bool
	quietEpochs int

	// Reusable epoch scratch.
	budgets     []float64
	ts          []threadScratch
	allocActive []int
	allocCount  []int
}

// New builds an engine for spec on machine m under policy os.
func New(m *topo.Machine, spec workloads.Spec, policy OS, cfg Config) (*Engine, error) {
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	fabric := interconnect.New(m, interconnect.DefaultParams())
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	wl, err := workloads.Build(spec, space, m)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		machine:  m,
		wl:       wl,
		os:       policy,
		hier:     cache.Default(),
		tlbModel: tlb.NewModel(),
		rng:      stats.NewRng(cfg.Seed),
		ibs:      ibs.DefaultConfig(),
		maxAlloc: maxAllocPerEpoch,
		samples:  steadySamples,
		threads:  m.TotalCores(),
		nodes:    m.Nodes,
	}
	e.env = &Env{
		Machine: m,
		Phys:    phys,
		Fabric:  fabric,
		Space:   space,
		Sampler: ibs.NewSampler(e.ibs, m.Nodes),
		Costs:   vm.DefaultOpCosts(),
		Rng:     e.rng.Split(0xfeed),
		engine:  e,
	}
	e.stolen = make([]float64, e.threads)
	e.progress = make([]float64, e.threads)
	e.finishTime = make([]float64, e.threads)
	for i := range e.finishTime {
		e.finishTime[i] = -1
	}
	e.churnFault = make([]float64, e.threads)
	e.profiles = make([]cache.LevelProbs, len(wl.Regions))
	e.counts = make([]workloads.PageCounts, len(wl.Regions))
	e.churnPer = make([]float64, len(wl.Regions))
	e.lat = make([]float64, e.nodes*e.nodes)
	e.memLat = make([]float64, e.nodes)
	e.budgets = make([]float64, e.threads)
	e.allocActive = make([]int, 0, e.threads)
	e.allocCount = make([]int, e.threads)
	e.ts = make([]threadScratch, e.threads)
	for t := range e.ts {
		e.ts[t].homeCnt = make([]float64, e.nodes)
		e.ts[t].samples = make([]ibs.Sample, 0, 64)
	}
	if cfg.Mode == ModeAnalytic {
		e.aDist = make([][]float64, len(wl.Regions))
		e.aDistGen = make([]uint64, len(wl.Regions))
		e.snapGen = make([]uint64, len(wl.Regions))
		for ri := range e.aDist {
			e.aDist[ri] = make([]float64, e.threads*e.nodes)
			e.aDistGen[ri] = ^uint64(0) // force the first refresh
			e.snapGen[ri] = ^uint64(0)
		}
		for ri, br := range wl.Regions {
			if br.Spec.ChurnPer1K > 0 {
				e.churnRIs = append(e.churnRIs, int32(ri))
			}
		}
		for t := range e.ts {
			e.ts[t].ibsCarry = make([]float64, len(wl.Regions))
		}
	}
	policy.Setup(e.env)
	if e.env.PageTables != nil {
		e.fabLat = make([]float64, e.nodes*e.nodes)
		e.ptHome = make([]int32, len(wl.Regions))
		for t := range e.ts {
			e.ts[t].walkCnt = make([]float64, e.nodes)
		}
	}
	if cfg.Mode == ModeAnalytic {
		// The per-thread incremental caches; sized after Setup so the
		// page-table aggregates exist exactly when PT pricing is on.
		for t := range e.ts {
			g := &threadGeom{
				key:       invalidMemoKey,
				appKey:    invalidMemoKey,
				flushKey:  invalidMemoKey,
				homeAgg:   make([]float64, e.nodes),
				homeCnt:   make([]float64, e.nodes),
				physFlush: make([]float64, e.nodes),
				thinRate:  make([]float64, len(wl.Regions)),
				churnW:    make([]float64, len(e.churnRIs)),
			}
			if e.ptHome != nil {
				g.wPTHome = make([]float64, e.nodes)
				g.walkCnt = make([]float64, e.nodes)
				g.walkFlush = make([]float64, e.nodes)
			}
			e.ts[t].geom = g
		}
	}
	return e, nil
}

// Env exposes the engine's environment (examples and tests use it).
func (e *Engine) Env() *Env { return e.env }

// QuietEpochs returns how many epochs the incremental analytic engine
// priced as quiescent — entirely from cached aggregates, with census
// and IBS thinning deferred (DESIGN.md §4.10). Always zero in
// ModeSampled and under policies that do not implement DaemonScheduler.
// Diagnostics and tests use it to confirm the fast path engaged.
func (e *Engine) QuietEpochs() int { return e.quietEpochs }

// Workload exposes the built workload instance.
func (e *Engine) Workload() *workloads.Instance { return e.wl }

func (e *Engine) core(t int) topo.CoreID { return topo.CoreID(t) }

// Run executes the simulation to completion and returns the result.
func (e *Engine) Run() Result {
	res, err := e.RunContext(context.Background())
	if err != nil {
		// Unreachable: the background context never cancels, and
		// RunContext has no other error path.
		panic(err)
	}
	return res
}

// RunContext executes the simulation to completion or until ctx is
// canceled, whichever comes first. Cancellation is checked once per
// epoch — an epoch is microseconds to low milliseconds of host time, so
// a canceled run returns promptly — and the check is one non-blocking
// channel poll, preserving the steady loop's zero-allocation invariant.
// On cancellation the partial simulation state is discarded and
// ctx.Err() is returned; a context-free run is unaffected (results stay
// byte-identical for any worker count, with or without a context).
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	epochCycles := epochSeconds * e.machine.FreqHz
	maxEpochs := int(maxSimSeconds / epochSeconds)
	cancel := ctx.Done() // nil for context.Background(): no per-epoch poll at all
	timedOut := true
	epoch := 0
	for ; epoch < maxEpochs; epoch++ {
		if cancel != nil {
			select {
			case <-cancel:
				return Result{}, ctx.Err()
			default:
			}
		}
		if e.runEpoch(epoch, epochCycles) {
			timedOut = false
			epoch++
			break
		}
	}
	runtime := 0.0
	for t := 0; t < e.threads; t++ {
		if e.finishTime[t] > runtime {
			runtime = e.finishTime[t]
		}
	}
	if timedOut {
		runtime = float64(epoch) * epochSeconds
	}
	res := Result{
		Workload:             e.wl.Spec.Name,
		Policy:               e.os.Name(),
		Machine:              e.machine.Name,
		RuntimeSeconds:       runtime,
		TimedOut:             timedOut,
		Epochs:               epoch,
		Counters:             e.counters,
		LARPct:               e.counters.LARPct(),
		ImbalancePct:         e.env.Phys.ImbalancePct(),
		PTWSharePct:          e.counters.PTWL2MissSharePct(),
		PageMetrics:          perf.ComputePageMetrics(e.env.Space),
		DaemonOverheadCycles: e.overhead,
	}
	fc := e.env.Space.FaultCyclesAll()
	for c := range fc {
		fc[c] += e.churnFault[c]
	}
	runtimeCycles := runtime * e.machine.FreqHz
	res.MaxFaultSharePct = perf.MaxFaultSharePct(fc, runtimeCycles)
	res.MaxCoreFaultSeconds = stats.Max(fc) / e.machine.FreqHz
	taken, _ := e.env.Sampler.Stats()
	res.IBSSamplesTaken = taken
	n4, n2, n1 := e.env.Space.FaultCounts()
	res.FaultCounts = [3]uint64{n4, n2, n1}
	return res, nil
}

// snapshotEpoch refreshes the per-epoch read-only state every pricing
// worker shares: page census, cache profiles, per-region churn cost, and
// the flat DRAM latency table (all lagged values, constant until the
// next EndEpoch). In ModeAnalytic the per-region census and cache
// profile are functions of the mapping alone, so they are recomputed
// only for regions whose vm generation moved since the last scan; a
// moved region (or a changed phase table) advances the geometry
// generation and invalidates the cached TLB assessment.
func (e *Engine) snapshotEpoch() {
	incr := e.snapGen != nil // ModeAnalytic
	moved := false
	for ri, br := range e.wl.Regions {
		stale := true
		if incr {
			if g := br.VM.Gen(); g != e.snapGen[ri] {
				e.snapGen[ri] = g
				moved = true
			} else if !e.cfg.Reference {
				stale = false
			}
		}
		if stale {
			n4, n2, n1 := br.VM.MappedPages()
			e.counts[ri] = workloads.PageCounts{N4K: n4, N2M: n2, N1G: n1}
			e.profiles[ri] = e.wl.CacheProfile(ri, e.hier)
		}
		e.churnPer[ri] = e.churnCostPerAccess(br)
	}
	if incr {
		// Events rewrite region weights and extend the phase table
		// without touching any mapping — freeing a never-faulted region
		// releases nothing and bumps no Gen (the weights.eq identity
		// cell) — so the phase-table length is the cheap proxy that
		// catches them.
		if n := e.wl.NumPhases(); n != e.numPhases {
			e.numPhases = n
			moved = true
		}
		if moved {
			e.geomGen++
			e.assessValid = false
		}
	}
	e.env.Phys.FillLatencies(e.memLat)
	e.env.Fabric.FillLatencyMatrix(e.lat)
	if e.env.PageTables != nil {
		// Fabric-only copy for walk surcharges (a remote PTE fetch pays
		// the interconnect hop; its DRAM service time is already in the
		// assessment's WalkCycles), plus each region's PT home.
		copy(e.fabLat, e.lat)
		for ri, br := range e.wl.Regions {
			e.ptHome[ri] = -1
			if e.env.PageTables.Replicated {
				continue
			}
			if node, ok := br.VM.PTHome(); ok {
				e.ptHome[ri] = int32(node)
			}
		}
	}
	for s := 0; s < e.nodes; s++ {
		row := e.lat[s*e.nodes : (s+1)*e.nodes]
		for h := range row {
			row[h] += e.memLat[h]
		}
	}
}

// refreshNodeDists updates the analytic placement census for regions
// whose mapping generation moved (faults, migrations, splits,
// promotions) — steady epochs under a quiet policy skip the
// O(mapped pages) walk entirely. It must run after the epoch's
// allocation rounds so the first steady epoch prices the post-barrier
// placement, exactly like the sampled loop's page-table lookups.
func (e *Engine) refreshNodeDists() {
	moved := false
	for ri, br := range e.wl.Regions {
		if g := br.VM.Gen(); g != e.aDistGen[ri] {
			e.wl.FillNodeDists(ri, e.nodes, e.aDist[ri])
			e.aDistGen[ri] = g
			moved = true
		}
	}
	if moved {
		// This scan runs after the epoch's allocation rounds, so it
		// catches mutations the pre-alloc snapshot scan could not see.
		e.geomGen++
	}
}

// cmpCopy copies src into *dst and reports whether they were already
// equal. It is the change detector behind contention invalidation: the
// copy happens unconditionally so *dst always holds the previous
// epoch's inputs, and it allocates only when src grew (region events).
func cmpCopy(dst *[]float64, src []float64) bool {
	if len(*dst) != len(src) {
		*dst = append((*dst)[:0], src...)
		return false
	}
	d := *dst
	eq := true
	for i, v := range src {
		if d[i] != v {
			eq = false
			d[i] = v
		}
	}
	return eq
}

// refreshContention advances the contention generation when any input
// of the contention application moved since the previous priced epoch —
// the geometry generation, the combined controller+fabric latency
// table, the fabric-only walk table, or the per-region churn cost — and
// decides epoch quiescence: with no input moved, no event fired, no
// allocation run, and no policy daemon due at this epoch's tick, every
// thread's cached aggregates are exact, so pricing reuses them
// wholesale and defers the census and IBS thinning (DESIGN.md §4.10).
// The decision reads only serial engine state and never the cached
// values themselves, so it is identical under Config.Reference — which
// is what makes forced-recompute runs byte-identical.
func (e *Engine) refreshContention(eventsFired, allocsRan bool, epochCycles float64) {
	dirty := e.geomGen != e.lastGeomGen
	e.lastGeomGen = e.geomGen
	if !cmpCopy(&e.prevLat, e.lat) {
		dirty = true
	}
	if e.fabLat != nil && !cmpCopy(&e.prevFab, e.fabLat) {
		dirty = true
	}
	if !cmpCopy(&e.prevChurn, e.churnPer) {
		dirty = true
	}
	if dirty {
		e.contGen++
	}
	quiet := !dirty && !eventsFired && !allocsRan
	if quiet {
		ds, ok := e.os.(DaemonScheduler)
		if !ok {
			quiet = false
		} else {
			nowEnd := (e.nowCycles + epochCycles) / e.machine.FreqHz
			quiet = ds.NextDaemonDue(nowEnd) > nowEnd
		}
	}
	e.epochQuiet = quiet
	if quiet {
		e.quietEpochs++
	}
}

// minWorkFrac returns the slowest unfinished thread's progress as a
// fraction of its work target; it is the event timeline's clock.
func (e *Engine) minWorkFrac() float64 {
	work := e.wl.Spec.WorkPerThread
	if e.cfg.WorkScale > 0 {
		work *= e.cfg.WorkScale
	}
	min := 1.0
	for t := 0; t < e.threads; t++ {
		if e.finishTime[t] >= 0 {
			continue
		}
		if f := e.progress[t] / work; f < min {
			min = f
		}
	}
	return min
}

// growRegionState extends every per-region engine array to the current
// region count after an Alloc event; it must run before snapshotEpoch,
// which indexes these arrays for every region.
func (e *Engine) growRegionState() {
	n := len(e.wl.Regions)
	for len(e.profiles) < n {
		e.profiles = append(e.profiles, cache.LevelProbs{})
		e.counts = append(e.counts, workloads.PageCounts{})
		e.churnPer = append(e.churnPer, 0)
	}
	if e.aDist != nil {
		for len(e.aDist) < n {
			e.aDist = append(e.aDist, make([]float64, e.threads*e.nodes))
			e.aDistGen = append(e.aDistGen, ^uint64(0))
			e.snapGen = append(e.snapGen, ^uint64(0)) // sentinel: scans as moved
		}
		e.churnRIs = e.churnRIs[:0]
		for ri, br := range e.wl.Regions {
			if br.Spec.ChurnPer1K > 0 {
				e.churnRIs = append(e.churnRIs, int32(ri))
			}
		}
		for t := range e.ts {
			s := &e.ts[t]
			for len(s.ibsCarry) < n {
				s.ibsCarry = append(s.ibsCarry, 0)
			}
			for len(s.geom.thinRate) < n {
				s.geom.thinRate = append(s.geom.thinRate, 0)
			}
			s.geom.churnW = resize(s.geom.churnW, len(e.churnRIs))
		}
	}
	if e.ptHome != nil {
		for len(e.ptHome) < n {
			e.ptHome = append(e.ptHome, -1)
		}
	}
}

// runEpoch simulates one epoch; it reports whether the workload finished.
func (e *Engine) runEpoch(epoch int, epochCycles float64) bool {
	e.env.Space.BeginEpoch()
	// Fire any event whose boundary the slowest thread has reached. This
	// happens serially before the snapshot and the pricing stage, so
	// every thread prices the post-event workload shape — the settle
	// clamp guarantees no thread has worked past the boundary.
	eventsFired := false
	if e.wl.HasEvents() && e.wl.ApplyReadyEvents(e.minWorkFrac()) > 0 {
		e.growRegionState()
		eventsFired = true
	}
	// Refresh per-epoch derived state (page census, cache profiles, TLB
	// assessment — identical across threads by symmetry). The assessment
	// is a function of the phase weights and the page census only, so
	// ModeAnalytic reuses the previous epoch's until either moved.
	e.snapshotEpoch()
	assess := e.assessCache
	if !e.assessValid || e.cfg.Reference || e.snapGen == nil {
		assess = e.tlbModel.Assess(e.wl.TLBSegments(0, e.counts))
		e.assessCache = assess
		e.assessValid = true
	}

	budgets := e.budgets
	for t := range budgets {
		budgets[t] = epochCycles - e.stolen[t]
		e.stolen[t] = 0
	}

	pt := phaseEnter(phaseAlloc)
	allocsRan := e.runAllocRounds(epoch, budgets)
	phaseExit(phaseAlloc, pt)

	// Initialization barrier: steady-state work starts only once every
	// thread has finished its allocation phase, as in the real programs.
	barrier := e.wl.AllocAllDone()
	if barrier && !e.resetAtBarrier {
		// Ground-truth page metrics (PAMUP/NHP/PSP) describe steady-state
		// behaviour; exclude the first-touch pass, whose weight is
		// inflated by the scaled-down run lengths.
		e.env.Space.ResetAccessCounters()
		e.resetAtBarrier = true
	}
	done := true
	nrun := 0
	for t := 0; t < e.threads; t++ {
		e.ts[t].ran = false
		if e.finishTime[t] >= 0 {
			continue
		}
		if !barrier {
			done = false
			continue
		}
		if budgets[t] <= 0 {
			e.stolen[t] = -budgets[t]
			done = false
			continue
		}
		e.ts[t].ran = true
		nrun++
	}
	if nrun > 0 {
		if e.aDist != nil {
			// The census must track every placement change immediately:
			// pricing even a few epochs of stale placement feeds wrong
			// traffic into the controller models, and the migration
			// daemons' control loops amplify the error (tested: a
			// 4-epoch refresh throttle moved imbalance by >20 points on
			// migration-heavy cells).
			e.refreshNodeDists()
			e.refreshContention(eventsFired, allocsRan, epochCycles)
		}
		// Stage 1 (parallel): price every runnable thread's epoch against
		// the shared read-only snapshot, into per-thread scratch.
		pt = phaseEnter(phasePrice)
		e.priceAll(epoch, epochCycles, assess, nrun)
		phaseExit(phasePrice, pt)
		// Stage 2 (serial, in thread order): replay the deferred
		// mutations into the shared models. The fixed order makes the
		// result independent of how stage 1 was scheduled.
		pt = phaseEnter(phaseMerge)
		for t := 0; t < e.threads; t++ {
			if !e.ts[t].ran {
				continue
			}
			e.mergeSteady(t)
			if !e.ts[t].finished {
				done = false
			}
		}
		phaseExit(phaseMerge, pt)
	}
	e.env.Phys.EndEpoch(epochCycles)
	e.env.Fabric.EndEpoch(epochCycles)
	e.nowCycles += epochCycles
	now := e.nowCycles / e.machine.FreqHz
	pt = phaseEnter(phaseDaemon)
	oh := e.os.Tick(e.env, now)
	phaseExit(phaseDaemon, pt)
	if oh > 0 {
		e.overhead += oh
		per := oh / float64(e.threads)
		for t := range e.stolen {
			e.stolen[t] += per
		}
	}
	return done
}

// steadyWorkers decides how many goroutines stage 1 may use and borrows
// any extra tokens from the shared pool; the caller must return borrowed
// tokens with ReleaseN. The worker count can never change results, only
// wall-clock time.
func (e *Engine) steadyWorkers(nrun int) (workers, borrowed int) {
	limit := runtime.GOMAXPROCS(0)
	if limit > nrun {
		limit = nrun
	}
	if limit < 1 {
		limit = 1
	}
	if e.workers > 0 {
		return min(e.workers, limit), 0
	}
	if e.cfg.Pool != nil {
		// The engine's own goroutine already holds one token (its
		// scheduler slot); free tokens become extra workers for this
		// epoch only.
		borrowed = e.cfg.Pool.TryAcquire(limit - 1)
		return 1 + borrowed, borrowed
	}
	return limit, 0
}

// priceAll runs the pricing stage for every runnable thread, fanning out
// over a bounded worker set when more than one worker is available.
func (e *Engine) priceAll(epoch int, epochCycles float64, assess tlb.Assessment, nrun int) {
	workers, borrowed := e.steadyWorkers(nrun)
	defer func() {
		if borrowed > 0 {
			e.cfg.Pool.ReleaseN(borrowed)
		}
	}()
	if workers <= 1 {
		for t := 0; t < e.threads; t++ {
			if e.ts[t].ran {
				e.priceThread(t, epoch, epochCycles, assess, false)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= e.threads {
					return
				}
				if e.ts[t].ran {
					e.priceThread(t, epoch, epochCycles, assess, true)
				}
			}
		}()
	}
	wg.Wait()
}

// priceThread prices one thread's steady-state epoch under the
// configured mode. Both implementations share the contract documented on
// priceSteady: read only the epoch snapshot and per-thread state, write
// only per-thread scratch plus commutative access accounting.
//
//lpnuma:noalloc steady-state epochs run once per simulated quantum; TestSteadyEpochZeroAlloc and TestAnalyticEpochZeroAlloc enforce this at runtime
func (e *Engine) priceThread(t, epoch int, epochCycles float64, assess tlb.Assessment, shared bool) {
	if e.cfg.Mode == ModeAnalytic {
		e.priceAnalytic(t, epoch, epochCycles, assess, shared)
		return
	}
	e.priceSteady(t, epoch, epochCycles, assess, shared)
}

// pricingCtx is the per-thread epoch context shared by both pricing
// stages: the thread's reset scratch plus the read-only row views of the
// epoch snapshot. Centralizing it in beginPricing keeps the two stages
// from drifting — a scratch field whose reset appears in only one mode
// would carry stale state across epochs there.
type pricingCtx struct {
	s           *threadScratch
	core        topo.CoreID
	src         int
	startBudget float64
	// ibsPerAccess is the expected IBS interrupt overhead per access.
	ibsPerAccess float64
	work         float64
	phase        int
	latRow       []float64
	fabRow       []float64 // nil unless page-table locality pricing is on
	mlp          float64
}

// beginPricing re-seeds thread t's epoch stream, clears its scratch, and
// assembles the context both pricing implementations consume.
func (e *Engine) beginPricing(t, epoch int) pricingCtx {
	s := &e.ts[t]
	e.rng.SplitInto(uint64(epoch)<<20|uint64(t)<<1|1, &s.rng)
	for i := range s.homeCnt {
		s.homeCnt[i] = 0
	}
	for i := range s.walkCnt {
		s.walkCnt[i] = 0
	}
	s.samples = s.samples[:0]
	s.faultLog = s.faultLog[:0]
	s.acctLog = s.acctLog[:0]
	s.pendFaults = s.pendFaults[:0]
	s.markFaulter = false
	s.flush = false
	s.finished = false

	spec := e.wl.Spec
	px := pricingCtx{
		s:            s,
		core:         e.core(t),
		startBudget:  e.budgets[t],
		ibsPerAccess: e.ibs.Rate * e.ibs.CyclesPerSample,
		work:         spec.WorkPerThread,
		mlp:          1 - spec.MLPOverlap,
	}
	px.src = int(e.machine.NodeOf(px.core))
	if e.cfg.WorkScale > 0 {
		px.work *= e.cfg.WorkScale
	}
	px.phase = e.wl.PhaseAt(e.progress[t] / px.work)
	px.latRow = e.lat[px.src*e.nodes : (px.src+1)*e.nodes]
	if e.ptHome != nil {
		px.fabRow = e.fabLat[px.src*e.nodes : (px.src+1)*e.nodes]
	}
	return px
}

// priceSteady prices one thread's steady-state epoch into its scratch.
// It reads only the epoch snapshot, per-thread state and the (stable
// between epochs) mapping tables, and writes only per-thread state plus
// the commutative access accounting (atomically when shared is set) — it
// must not otherwise touch the shared models, which stage 2 updates in
// thread order. This loop is the hottest code in the repository and
// holds the zero-allocation invariant asserted by BenchmarkSteadyEpoch.
func (e *Engine) priceSteady(t, epoch int, epochCycles float64, assess tlb.Assessment, shared bool) {
	px := e.beginPricing(t, epoch)
	s := px.s
	rng := &s.rng
	spec := e.wl.Spec
	core := px.core
	src := px.src
	startBudget := px.startBudget
	ibsPerAccess := px.ibsPerAccess
	work := px.work
	phase := px.phase
	latRow := px.latRow
	ptHomes := e.ptHome // nil unless page-table locality pricing is on
	fabRow := px.fabRow
	mlp := px.mlp

	var sumCost, faultDirect float64
	var local, remote, dataL2, ptwL2, tlbMiss, churnCycles float64
	K := e.samples
	for i := 0; i < K; i++ {
		acc := e.wl.NextSteadyPhase(t, rng, phase)
		br := e.wl.Regions[acc.RegionIdx]
		res, st := br.VM.PeekRecord(acc.Off, t, shared)
		if st != vm.PeekMapped {
			var fcost float64
			res, fcost = s.resolveFault(br.VM, int32(acc.RegionIdx), core, acc.Off)
			if fcost > 0 {
				faultDirect += fcost
				//lpnuma:alloc-ok scratch append; capacity stabilizes after warm-up (TestSteadyEpochZeroAlloc)
				s.faultLog = append(s.faultLog, accessRec{off: acc.Off, cost: fcost, region: int32(acc.RegionIdx)})
			}
			if st == vm.PeekUnmappedChunk {
				// Accounting granularity is decided by the fault replay.
				//lpnuma:alloc-ok scratch append; drains each epoch like faultLog
				s.acctLog = append(s.acctLog, accessRec{off: acc.Off, region: int32(acc.RegionIdx)})
			}
		}
		cost := spec.ExtraCyclesPerAccess + ibsPerAccess

		// Translation.
		u := rng.Float64()
		if u >= assess.L1Hit {
			if u < assess.L1Hit+assess.L2Hit {
				cost += tlb.L2HitCycles
			} else {
				cost += assess.WalkCycles
				tlbMiss++
				ptwL2 += assess.WalkL2Misses
				if ptHomes != nil {
					// NUMA-aware page tables: the walk's DRAM fetches go
					// to the accessed region's PT home node, paying the
					// fabric on top when that node is remote.
					home := int(ptHomes[acc.RegionIdx])
					if home < 0 {
						home = src
					} else if home != src {
						cost += assess.RemoteWalkCycles(fabRow[home])
					}
					s.walkCnt[home] += assess.WalkDRAMFetches()
				}
			}
		}

		// Allocation churn (expectation per access, hoisted per region).
		if br.Spec.ChurnPer1K > 0 {
			cc := e.churnPer[acc.RegionIdx]
			cost += cc
			churnCycles += cc
			s.markFaulter = true
		}

		// Cache hierarchy.
		p := e.profiles[acc.RegionIdx]
		v := rng.Float64()
		switch {
		case v < p.L1:
			cost += e.hier.L1Cycles
		case v < p.L1+p.L2:
			cost += e.hier.L2Cycles
		case v < p.L1+p.L2+p.L3:
			cost += e.hier.L3Cycles
			dataL2++
		default:
			dataL2++
			home := int(res.Node)
			cost += latRow[home] * mlp
			s.homeCnt[home]++
			if home == src {
				local++
			} else {
				remote++
			}
			if rng.Bernoulli(e.ibs.RecordRate) {
				//lpnuma:alloc-ok scratch append; capacity stabilizes after warm-up (TestSteadyEpochZeroAlloc)
				s.samples = append(s.samples, ibs.Sample{
					Page: res.Page, Off: acc.Off, Thread: int32(t), Core: int32(core),
					AccessorNode: uint8(src), HomeNode: uint8(res.Node), DRAM: true,
				})
			}
		}
		sumCost += cost
	}

	if !e.settleThread(t, phase, startBudget, epochCycles, sumCost/float64(K), faultDirect, work) {
		return
	}
	s.local, s.remote, s.dataL2 = local, remote, dataL2
	s.ptwL2, s.tlbMiss, s.churn = ptwL2, tlbMiss, churnCycles
}

// settleThread is the pricing epilogue shared by the sampled and
// analytic stages: it charges direct fault time, converts the average
// per-access cost into scaled progress (clamped to the next phase
// boundary and the thread's remaining work), and fixes the epoch's
// flush scale. It reports false when fault time alone ate the budget —
// no scaled progress this epoch; the deferred access log still replays
// (the faults really happened), only the scaled flush is skipped.
func (e *Engine) settleThread(t, phase int, startBudget, epochCycles, avg, faultDirect, work float64) bool {
	s := &e.ts[t]
	e.budgets[t] -= faultDirect
	if e.budgets[t] <= 0 {
		e.stolen[t] = -e.budgets[t]
		return false
	}
	s.flush = true
	if avg <= 0 {
		avg = 1
	}
	realAccesses := e.budgets[t] / avg
	remaining := work - e.progress[t]
	// Do not run past the next phase boundary: the new mix must be
	// re-priced before it contributes progress.
	if next := e.wl.NextPhaseBoundary(phase); next > 0 {
		if left := next*work - e.progress[t]; left > 0 && realAccesses > left {
			realAccesses = left
		}
	}
	// Event boundaries are global barriers, not per-thread phase edges:
	// until the mutation has applied (which requires every thread to
	// arrive), a thread at the boundary performs no work at all — running
	// ahead would price the pre-event workload shape past the event.
	if eb := e.wl.NextEventBoundary(); eb > 0 {
		if left := eb*work - e.progress[t]; realAccesses > left {
			if left < 0 {
				left = 0
			}
			realAccesses = left
		}
	}
	if realAccesses >= remaining {
		realAccesses = remaining
		used := startBudget - e.budgets[t] + realAccesses*avg
		frac := used / epochCycles
		if frac > 1 {
			frac = 1
		}
		e.finishTime[t] = e.nowCycles/e.machine.FreqHz + frac*epochSeconds
		s.finished = true
	} else {
		e.budgets[t] = 0
	}
	e.progress[t] += realAccesses
	s.realAccesses = realAccesses
	s.scale = realAccesses / float64(e.samples)
	return true
}

// resolveFault prices a steady-state touch of an unmapped page during
// the parallel stage: the first touch per page plans a fault
// (read-only) and remembers it, repeated touches resolve against the
// thread's own pending faults. Cross-thread racing faults are settled by
// the merge stage: every racer pays its handler time (they genuinely
// serialize on the page-table lock), the lowest-indexed thread's
// placement wins.
func (s *threadScratch) resolveFault(r *vm.Region, ri int32, core topo.CoreID, off uint64) (vm.AccessResult, float64) {
	ci := int32(off / uint64(mem.Size2M))
	sub := int32(off % uint64(mem.Size2M) / uint64(mem.Size4K))
	for _, pf := range s.pendFaults {
		if pf.region != ri || pf.ci != ci {
			continue
		}
		if pf.sub < 0 {
			return vm.AccessResult{Node: pf.node, PageSize: mem.Size2M,
				Page: vm.PageID{Region: r, Chunk: int(ci), Sub: -1}}, 0
		}
		if pf.sub == sub {
			return vm.AccessResult{Node: pf.node, PageSize: mem.Size4K,
				Page: vm.PageID{Region: r, Chunk: int(ci), Sub: int(sub)}}, 0
		}
	}
	size, node, cost := r.PlanFault(core, off)
	psub := sub
	pageSub := int(sub)
	if size == mem.Size2M {
		psub, pageSub = -1, -1
	}
	//lpnuma:alloc-ok scratch append; pending faults drain each epoch and capacity stabilizes
	s.pendFaults = append(s.pendFaults, pendingFault{region: ri, ci: ci, sub: psub, node: node})
	return vm.AccessResult{Node: node, PageSize: size,
		Page:    vm.PageID{Region: r, Chunk: int(ci), Sub: pageSub},
		Faulted: true, FaultCycles: cost}, cost
}

// mergeSteady replays one priced thread into the shared models: deferred
// faults in access order, then accounting whose granularity those faults
// decide, then the scaled DRAM/IBS/counter flush. Called in thread index
// order, which fixes every floating-point accumulation order and
// racing-fault outcome regardless of stage 1's scheduling. In fault-free
// steady epochs (the common case) both replay logs are empty —
// accounting already happened in the parallel stage.
func (e *Engine) mergeSteady(t int) {
	s := &e.ts[t]
	core := e.core(t)
	for i := range s.faultLog {
		rec := &s.faultLog[i]
		e.wl.Regions[rec.region].VM.ApplyFault(core, rec.off, rec.cost)
	}
	for i := range s.acctLog {
		rec := &s.acctLog[i]
		e.wl.Regions[rec.region].VM.RecordAccess(rec.off, t)
	}
	if s.markFaulter {
		e.env.Space.MarkFaulter(core)
	}
	if !s.flush {
		return
	}
	scale := s.scale
	src := e.machine.NodeOf(core)
	if g := s.geom; g != nil && !e.cfg.Reference {
		// Incremental merge accounting (DESIGN.md §4.11): the scaled flush
		// products are keyed on (appKey, scale) — in a converged stretch
		// both are unchanged and the thread replays its memoized delta.
		// The skip test stays on the unscaled counts, exactly like the
		// recompute path below.
		if g.appKey != g.flushKey || scale != g.flushScale {
			for h, cnt := range s.homeCnt {
				g.physFlush[h] = cnt * scale
			}
			for h, cnt := range s.walkCnt {
				g.walkFlush[h] = cnt * scale
			}
			g.localX, g.remoteX = s.local*scale, s.remote*scale
			g.dataL2X, g.ptwL2X = s.dataL2*scale, s.ptwL2*scale
			g.tlbMissX, g.churnX = s.tlbMiss*scale, s.churn*scale
			g.flushKey, g.flushScale = g.appKey, scale
		}
		for h, cnt := range s.homeCnt {
			if cnt == 0 {
				continue
			}
			home := topo.NodeID(h)
			e.env.Phys.Record(home, g.physFlush[h])
			e.env.Fabric.Record(src, home, g.physFlush[h])
		}
		for h, cnt := range s.walkCnt {
			if cnt == 0 {
				continue
			}
			home := topo.NodeID(h)
			e.env.Phys.Record(home, g.walkFlush[h])
			e.env.Fabric.Record(src, home, g.walkFlush[h])
		}
		for i := range s.samples {
			e.env.Sampler.RecordScaled(&s.samples[i], scale)
		}
		e.counters.Accesses += s.realAccesses
		e.counters.LocalDRAM += g.localX
		e.counters.RemoteDRAM += g.remoteX
		e.counters.DataL2Misses += g.dataL2X
		e.counters.PTWL2Misses += g.ptwL2X
		e.counters.TLBMisses += g.tlbMissX
		e.churnFault[core] += g.churnX
		return
	}
	for h, cnt := range s.homeCnt {
		if cnt == 0 {
			continue
		}
		home := topo.NodeID(h)
		e.env.Phys.Record(home, cnt*scale)
		e.env.Fabric.Record(src, home, cnt*scale)
	}
	for h, cnt := range s.walkCnt {
		if cnt == 0 {
			continue
		}
		home := topo.NodeID(h)
		e.env.Phys.Record(home, cnt*scale)
		e.env.Fabric.Record(src, home, cnt*scale)
	}
	for i := range s.samples {
		e.env.Sampler.RecordScaled(&s.samples[i], scale)
	}
	e.counters.Accesses += s.realAccesses
	e.counters.LocalDRAM += s.local * scale
	e.counters.RemoteDRAM += s.remote * scale
	e.counters.DataL2Misses += s.dataL2 * scale
	e.counters.PTWL2Misses += s.ptwL2 * scale
	e.counters.TLBMisses += s.tlbMiss * scale
	e.churnFault[core] += s.churn * scale
}

// runAllocRounds advances allocation phases in small per-thread time
// slices so faulting threads genuinely contend. The visit order is
// re-shuffled every round: which thread wins the race to an unclaimed
// chunk is timing noise on real hardware, not a function of thread ids.
// Allocation stays serial: it is the phase whose whole point is
// cross-thread contention (racing first-touches, page-table locks), so
// threads are not independent within an epoch here. It reports whether
// any thread entered an allocation round — allocation mutates mappings
// and records traffic, so such an epoch can never be quiescent.
func (e *Engine) runAllocRounds(epoch int, budgets []float64) bool {
	active := e.allocActive[:0]
	allocCount := e.allocCount
	for t := 0; t < e.threads; t++ {
		allocCount[t] = 0
		if !e.wl.AllocDone(t) && budgets[t] > 0 {
			active = append(active, t)
		}
	}
	ran := len(active) > 0
	round := 0
	var shuffleRng stats.Rng
	for len(active) > 0 {
		e.rng.SplitInto(0xa110c<<20|uint64(epoch)<<8|uint64(round&0xff), &shuffleRng)
		for i := len(active) - 1; i > 0; i-- {
			j := shuffleRng.Intn(i + 1)
			active[i], active[j] = active[j], active[i]
		}
		round++
		next := active[:0]
		for _, t := range active {
			src := int(e.machine.NodeOf(e.core(t)))
			latRow := e.lat[src*e.nodes : (src+1)*e.nodes]
			if e.cfg.Reference {
				e.allocSlicePerPage(t, budgets, allocCount, src, latRow)
			} else {
				e.allocSliceBatched(t, budgets, allocCount, src, latRow)
			}
			if !e.wl.AllocDone(t) && budgets[t] > 0 && allocCount[t] < e.maxAlloc {
				next = append(next, t)
			}
		}
		active = next
	}
	e.allocActive = active[:0]
	return ran
}

// allocSlicePerPage runs one thread's allocation time slice touch by
// touch through vm.Access — the reference path the batched slice must
// reproduce byte for byte (Config.Reference forces it everywhere).
func (e *Engine) allocSlicePerPage(t int, budgets []float64, allocCount []int, src int, latRow []float64) {
	var spent float64
	for spent < allocRoundCycles {
		if budgets[t] <= 0 || allocCount[t] >= e.maxAlloc {
			break
		}
		if !e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow) {
			break
		}
	}
}

// allocOneSlow performs exactly one first-touch through the full
// vm.Access fault path (with its capacity and fragmentation fallbacks)
// and charges it with the alloc phase's per-touch arithmetic. It is the
// whole per-page reference path, and the batched slice's escape hatch
// for the rare touch whose fault pre-checks fail — precisely the touches
// whose outcome the fallback chain decides. Reports whether a touch was
// consumed.
func (e *Engine) allocOneSlow(t int, budgets []float64, allocCount []int, spent *float64, src int, latRow []float64) bool {
	touch, ok := e.wl.NextAlloc(t)
	if !ok {
		return false
	}
	allocCount[t]++
	res := touch.Region.VM.Access(e.core(t), t, touch.Off)
	node := res.Node
	// Initialization is a streaming write pass: one DRAM line
	// fill per 8 accesses.
	const dramFrac = 0.125
	lat := latRow[node]
	per := 4 + dramFrac*lat*(1-e.wl.Spec.MLPOverlap)
	cost := res.FaultCycles + touch.Weight*per
	budgets[t] -= cost
	*spent += cost
	reqs := touch.Weight * dramFrac
	e.env.Phys.Record(node, reqs)
	e.env.Fabric.Record(topo.NodeID(src), node, reqs)
	e.counters.Accesses += touch.Weight
	if int(node) == src {
		e.counters.LocalDRAM += reqs
	} else {
		e.counters.RemoteDRAM += reqs
	}
	e.counters.DataL2Misses += reqs
	return true
}

// allocSliceBatched runs one thread's allocation time slice span by span
// (DESIGN.md §4.11): it classifies the maximal leading run of the
// thread's pending first-touches that resolves to one (chunk, node,
// size), prices the whole run with one latency lookup, replays the
// per-touch budget arithmetic to find how many touches the slice
// affords, and commits them through one vm.ApplyAlloc* operation — one
// buddy transaction, one accounting pass. Every float accumulator
// advances by the same per-touch addition sequence as the per-page path,
// so the result is byte-identical to a Config.Reference run; runs whose
// fault pre-checks fail fall back to allocOneSlow, which replays the
// fallback chain exactly.
func (e *Engine) allocSliceBatched(t int, budgets []float64, allocCount []int, src int, latRow []float64) {
	var spent float64
	core := e.core(t)
	rc := allocRoundCycles
	maxAlloc := e.maxAlloc
	for spent < rc {
		if budgets[t] <= 0 || allocCount[t] >= maxAlloc {
			break
		}
		br, pages, ok := e.wl.PeekAllocRun(t)
		if !ok {
			break
		}
		run := br.VM.ClassifyAllocRun(core, pages)
		var faultEach float64
		switch run.Kind {
		case vm.AllocRunFault4K:
			// Cap the run at the node's free 4 KB frames: within that cap
			// the buddy cannot fail (any free block splits down to 4 KB),
			// beyond it the per-page fallback chain decides the outcome.
			free := int(e.env.Phys.FreeBytes(run.Node) / uint64(mem.Size4K))
			if free <= 0 {
				e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow)
				continue
			}
			if run.N > free {
				run.N = free
			}
			faultEach = e.env.Space.FaultCostFor(mem.Size4K)
		case vm.AllocRunFault2M:
			if !e.env.Phys.FreeContiguous(run.Node, mem.Size2M) {
				e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow)
				continue
			}
			faultEach = e.env.Space.FaultCostFor(mem.Size2M)
		}
		// Initialization is a streaming write pass: one DRAM line
		// fill per 8 accesses.
		const dramFrac = 0.125
		weight := workloads.TouchWeight(br)
		lat := latRow[run.Node]
		per := 4 + dramFrac*lat*(1-e.wl.Spec.MLPOverlap)
		cost := faultEach + weight*per
		reqs := weight * dramFrac
		// Replay the per-touch budget arithmetic to find how many of the
		// run's touches this slice affords. The first iteration's checks
		// mirror the loop-top checks that already passed.
		budget := budgets[t]
		cnt := allocCount[t]
		k := 0
		for k < run.N {
			if spent >= rc || budget <= 0 || cnt >= maxAlloc {
				break
			}
			cnt++
			budget -= cost
			spent += cost
			k++
		}
		switch run.Kind {
		case vm.AllocRunHit:
			br.VM.ApplyAllocHitRun(t, pages, k)
		case vm.AllocRunFault4K:
			br.VM.ApplyAllocFault4KRun(core, t, run.Node, pages, k, faultEach)
		default: // vm.AllocRunFault2M, k == 1
			br.VM.ApplyAllocFault2M(core, t, pages[0], run.Node, faultEach)
		}
		e.wl.AdvanceAlloc(t, k)
		budgets[t] = budget
		allocCount[t] = cnt
		e.env.Phys.RecordN(run.Node, reqs, k)
		e.env.Fabric.RecordN(topo.NodeID(src), run.Node, reqs, k)
		acc := e.counters.Accesses
		for i := 0; i < k; i++ {
			acc += weight
		}
		e.counters.Accesses = acc
		if int(run.Node) == src {
			local := e.counters.LocalDRAM
			for i := 0; i < k; i++ {
				local += reqs
			}
			e.counters.LocalDRAM = local
		} else {
			remote := e.counters.RemoteDRAM
			for i := 0; i < k; i++ {
				remote += reqs
			}
			e.counters.RemoteDRAM = remote
		}
		dl2 := e.counters.DataL2Misses
		for i := 0; i < k; i++ {
			dl2 += reqs
		}
		e.counters.DataL2Misses = dl2
	}
}

// churnCostPerAccess prices allocation churn in expectation: fresh pages
// are faulted at ChurnPer1K per thousand accesses when running on 4 KB
// pages; when THP backs the region, ChurnTHPFrac of that memory arrives in
// 2 MB pages (1/512 the faults, each costing a 2 MB fault).
func (e *Engine) churnCostPerAccess(br *workloads.BuiltRegion) float64 {
	rate := br.Spec.ChurnPer1K / 1000
	if rate <= 0 {
		return 0
	}
	space := e.env.Space
	huge := false
	if br.VM.THPEligible && space.AllocSize(br.VM, 0) == mem.Size2M {
		huge = true
	}
	c4 := space.FaultCostFor(mem.Size4K)
	if !huge {
		return rate * c4
	}
	f := br.Spec.ChurnTHPFrac
	// 2 MB churn faults are 512× rarer, so the page-table lock is held far
	// less often: the contention term collapses along with the rate.
	lockWait := c4 - space.Faults.Base4K
	c2 := space.Faults.Base2M + lockWait/16
	return rate * ((1-f)*c4 + f/float64(vm.SubsPerChunk)*c2)
}

// String renders a short description of the engine setup.
func (e *Engine) String() string {
	return fmt.Sprintf("sim(%s, %s, machine %s)", e.wl.Spec.Name, e.os.Name(), e.machine.Name)
}
