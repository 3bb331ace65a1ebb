package sim

// Phase instrumentation for the run (README "Profiling"). A run is one
// fixed sequence of named phases: setup (New); per epoch events,
// snapshot, alloc, census, price, merge, end-epoch and daemon
// (DESIGN.md §4.2); then finalize (RunContext's Result assembly). Each
// engine carries one phaseClock whose lap is the only boundary between
// phases: it closes the open phase and opens the next, so the phases
// tile the run with no gaps and no step can be left unattributed. Two
// independent switches, both process-wide and default-off, so
// unobserved runs pay two predictable atomic loads per boundary:
//
//   - SetPhaseTracking accumulates host wall seconds per phase across
//     every engine in the process (lpbench reports the breakdown).
//   - SetPhaseLabels tags the executing goroutine with a pprof label
//     ("lpnuma_phase", see phaseNames) at each boundary, so
//     `go tool pprof -tagfocus` can slice a CPU profile by phase (the
//     lpnuma -cpuprofile flag turns this on).
//
// Host time is diagnostics only: it never feeds a simulation input and
// is not part of Result, so the determinism contract is untouched.

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Run phases, in execution order.
const (
	phaseSetup = iota
	phaseEvents
	phaseSnapshot
	phaseAlloc
	phaseCensus
	phasePrice
	phaseMerge
	phaseEndEpoch
	phaseDaemon
	phaseFinalize
	numPhases
	// phaseIdle is the stopped clock: no wall slot, no label.
	phaseIdle = numPhases
)

// phaseNames are the pprof label values, indexed by phase.
var phaseNames = [numPhases]string{
	"setup", "events", "snapshot", "alloc", "census",
	"steady-price", "merge", "end-epoch", "daemon", "finalize",
}

// PhaseWall is the cumulative host wall time spent in each run phase
// since the last ResetPhaseWall, summed over all engines in the
// process (workers accumulate concurrently). The fields together cover
// a run from New to the return of RunContext.
type PhaseWall struct {
	AllocSeconds  float64 // budgets, allocation-fault rounds, initialization barrier
	PriceSeconds  float64 // parallel steady-state pricing (stage 1)
	MergeSeconds  float64 // serial merge of deferred mutations (stage 2)
	DaemonSeconds float64 // policy daemon tick (OS.Tick) and its overhead charge

	SetupSeconds    float64 // New: models, workload build, policy Setup
	EventsSeconds   float64 // epoch open (vm BeginEpoch) and event firing
	SnapshotSeconds float64 // read-only epoch snapshot and TLB assessment
	CensusSeconds   float64 // analytic placement census and contention refresh
	EndEpochSeconds float64 // controller/fabric EndEpoch and the clock advance
	FinalizeSeconds float64 // Result assembly
}

var (
	// phaseTrackGen is 0 while tracking is off; turning tracking on
	// stores a fresh generation from phaseTrackSeq, so a clock never
	// charges an interval whose start it timed under an earlier window.
	phaseTrackGen atomic.Uint64
	phaseTrackSeq atomic.Uint64
	phaseLabelOn  atomic.Bool
	phaseWallNS   [numPhases]atomic.Int64
)

// phaseCtx holds one precomputed label context per phase plus the
// unlabeled base at phaseIdle; precomputing keeps SetGoroutineLabels
// the only per-boundary cost (pprof.Do would build labels and allocate
// per call).
var phaseCtx = func() [numPhases + 1]context.Context {
	var out [numPhases + 1]context.Context
	base := context.Background()
	for i, n := range phaseNames {
		out[i] = pprof.WithLabels(base, pprof.Labels("lpnuma_phase", n))
	}
	out[phaseIdle] = base
	return out
}()

// SetPhaseTracking turns process-wide per-phase wall accumulation on or
// off. Enabling does not reset previous totals; call ResetPhaseWall to
// start a fresh measurement window.
func SetPhaseTracking(on bool) {
	if on {
		phaseTrackGen.CompareAndSwap(0, phaseTrackSeq.Add(1))
	} else {
		phaseTrackGen.Store(0)
	}
}

// SetPhaseLabels turns pprof phase labels on or off: each boundary
// tags the engine's goroutine with lpnuma_phase set to the opened
// phase's name (phaseNames), and pricing workers inherit the tag.
func SetPhaseLabels(on bool) { phaseLabelOn.Store(on) }

// ResetPhaseWall zeroes the accumulated per-phase totals.
func ResetPhaseWall() {
	for i := range phaseWallNS {
		phaseWallNS[i].Store(0)
	}
}

// PhaseWallSnapshot returns the accumulated per-phase wall seconds.
func PhaseWallSnapshot() PhaseWall {
	s := func(p int) float64 { return float64(phaseWallNS[p].Load()) / 1e9 }
	return PhaseWall{
		AllocSeconds:    s(phaseAlloc),
		PriceSeconds:    s(phasePrice),
		MergeSeconds:    s(phaseMerge),
		DaemonSeconds:   s(phaseDaemon),
		SetupSeconds:    s(phaseSetup),
		EventsSeconds:   s(phaseEvents),
		SnapshotSeconds: s(phaseSnapshot),
		CensusSeconds:   s(phaseCensus),
		EndEpochSeconds: s(phaseEndEpoch),
		FinalizeSeconds: s(phaseFinalize),
	}
}

// phaseClock is one engine's phase timer: the open phase, and when and
// under which tracking generation it opened. The zero value is stopped.
type phaseClock struct {
	open int
	gen  uint64
	t0   time.Time
}

// lap closes the open phase and opens next (phaseIdle stops the clock).
// The pprof label switches at once; with tracking on, the closed
// phase's wall time goes to its slot. Both switches off: two atomic
// loads, no time syscall, no label write.
func (c *phaseClock) lap(next int) {
	if phaseLabelOn.Load() {
		pprof.SetGoroutineLabels(phaseCtx[next])
	}
	gen := phaseTrackGen.Load()
	if gen == 0 {
		return
	}
	//lpnuma:wallclock-ok opt-in phase diagnostics: host time is the measurement, never a simulation input
	now := time.Now()
	if c.gen == gen && c.open != phaseIdle {
		phaseWallNS[c.open].Add(now.Sub(c.t0).Nanoseconds())
	}
	c.open, c.gen, c.t0 = next, gen, now
}
