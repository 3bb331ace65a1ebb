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
	"strconv"

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
	// optimized ones (DESIGN.md §4.10–4.11): every analytic geometry
	// and contention memo rebuilds each epoch, the allocation
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
//
// The calibration's part of the serialization is formatted once
// (hashMid, hashTail). The per-run fields are appended with strconv,
// whose shortest 'g' form is fmt's %g for every float64 (sign, -0, NaN
// and ±Inf included), so a daemon's cache lookup formats nothing.
func (c Config) Hash() uint64 {
	var buf [128]byte
	b := strconv.AppendUint(buf[:0], uint64(c.Mode), 10)
	b = append(b, hashMid...)
	b = strconv.AppendFloat(b, c.WorkScale, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, hashTail...)
	h := uint64(fnvOffset64)
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime64
	}
	return h
}

// hashMid and hashTail are the calibration's share of Hash's format:
// the constants between Mode and WorkScale, and the IBS defaults after
// Seed, each with its separators.
var hashMid, hashTail = func() (string, string) {
	ib := ibs.DefaultConfig()
	return fmt.Sprintf("|%g|%d|%d|%g|%d|%g|", epochSeconds, steadySamples, analyticCensus,
			allocRoundCycles, maxAllocPerEpoch, maxSimSeconds),
		fmt.Sprintf("|%g|%g|%g|%d", ib.Rate, ib.RecordRate, ib.CyclesPerSample, ib.MaxPerNode)
}()

// FNV-1a's 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

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
	// NextDaemonDue returns the earliest simulated time (seconds) at
	// which a Tick call may perform daemon work — consume telemetry,
	// mutate mappings, or charge overhead cycles; a Tick invoked
	// strictly before that time must be a pure no-op. The analytic
	// engine's quiescence detection reads it (DESIGN.md §4.10).
	// Implementations must evaluate "due" with exactly the comparison
	// their Tick uses to gate work, so the engine's deferral decision and
	// the policy's firing decision never disagree; returning now (always
	// due) disables quiescent epochs but changes nothing else.
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
	// or a fired event (events rewrite weights without touching any
	// mapping). contGen additionally counts changes to the contention
	// inputs applied on top — the lagged latency matrices and the
	// per-region churn cost. Per-thread caches compare against these
	// to skip rebuilds; refreshContention compares the current epoch's
	// inputs against the prev* copies to advance contGen.
	geomGen     uint64
	contGen     uint64
	lastGeomGen uint64
	snapGen     []uint64 // per-region Gen at the last snapshot scan
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

	// clock times the run's phases (phasewall.go).
	clock phaseClock

	// Reusable epoch scratch.
	budgets     []float64
	ts          []threadScratch
	allocActive []int
	allocCount  []int
}

// New builds an engine for spec on machine m under policy os; it is the
// run's setup phase.
func New(m *topo.Machine, spec workloads.Spec, policy OS, cfg Config) (*Engine, error) {
	var clock phaseClock
	clock.lap(phaseSetup)
	defer clock.lap(phaseIdle)
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
	policy.Setup(e.env)
	if e.env.PageTables != nil {
		e.fabLat = make([]float64, e.nodes*e.nodes)
		e.ptHome = make([]int32, 0, len(wl.Regions))
		for t := range e.ts {
			e.ts[t].walkCnt = make([]float64, e.nodes)
		}
	}
	if cfg.Mode == ModeAnalytic {
		// The placement census and the per-thread incremental caches,
		// built after Setup so the page-table aggregates exist exactly
		// when PT pricing is on; growRegionState sizes them per region.
		e.aDist = make([][]float64, 0, len(wl.Regions))
		for t := range e.ts {
			g := &threadGeom{
				key:     invalidMemoKey,
				appKey:  invalidMemoKey,
				homeAgg: make([]float64, e.nodes),
				homeCnt: make([]float64, e.nodes),
			}
			if e.ptHome != nil {
				g.wPTHome = make([]float64, e.nodes)
				g.walkCnt = make([]float64, e.nodes)
			}
			e.ts[t].geom = g
		}
	}
	e.growRegionState()
	return e, nil
}

// Env exposes the engine's environment (examples and tests use it).
func (e *Engine) Env() *Env { return e.env }

// QuietEpochs returns how many epochs the incremental analytic engine
// priced as quiescent — entirely from cached aggregates, with census
// and IBS thinning deferred (DESIGN.md §4.10). Always zero in
// ModeSampled and under policies whose daemons are always due.
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
				e.clock.lap(phaseIdle)
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
	e.clock.lap(phaseFinalize)
	res := e.finalize(epoch, timedOut)
	e.clock.lap(phaseIdle)
	return res, nil
}

// runEpoch simulates one epoch as a fixed sequence of phases, each
// opened by one lap of the engine's phase clock (DESIGN.md §4.2). The
// values passed along are everything one phase hands a later one. It
// reports whether the workload finished.
func (e *Engine) runEpoch(epoch int, epochCycles float64) bool {
	e.clock.lap(phaseEvents)
	fired := e.fireEvents()
	e.clock.lap(phaseSnapshot)
	assess := e.snapshot(fired)
	e.clock.lap(phaseAlloc)
	allocRan, nrun := e.allocate(epoch, epochCycles)
	e.clock.lap(phaseCensus)
	e.census(fired, allocRan, nrun, epochCycles)
	e.clock.lap(phasePrice)
	e.priceAll(epoch, epochCycles, assess, nrun)
	e.clock.lap(phaseMerge)
	done := e.merge()
	e.clock.lap(phaseEndEpoch)
	e.endEpoch(epochCycles)
	e.clock.lap(phaseDaemon)
	e.daemon()
	return done
}

// String renders a short description of the engine setup.
func (e *Engine) String() string {
	return fmt.Sprintf("sim(%s, %s, machine %s)", e.wl.Spec.Name, e.os.Name(), e.machine.Name)
}
