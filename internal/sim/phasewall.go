package sim

// Opt-in phase instrumentation for the epoch loop (README "Profiling").
// Every epoch passes through four phases — allocation faulting, parallel
// steady-state pricing, the serial merge stage, and the policy daemon
// tick — and whole-run optimization work needs to know which one the
// wall clock went to. Two independent switches, both process-wide and
// default-off so unobserved runs pay nothing but a few predictable
// branch-not-taken loads per epoch:
//
//   - SetPhaseTracking accumulates host wall seconds per phase across
//     every engine in the process (lpbench reports the breakdown).
//   - SetPhaseLabels tags the executing goroutine with a pprof label
//     ("lpnuma_phase": alloc | steady-price | merge | daemon) at each
//     phase boundary, so `go tool pprof -tagfocus` can slice a CPU
//     profile by phase (the lpnuma -cpuprofile flag turns this on).
//
// Host time is diagnostics only: it never feeds a simulation input and
// is not part of Result, so the determinism contract is untouched.

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Epoch phases, in execution order.
const (
	phaseAlloc = iota
	phasePrice
	phaseMerge
	phaseDaemon
	numPhases
)

// PhaseWall is the cumulative host wall time spent in each epoch phase
// since the last ResetPhaseWall, summed over all engines in the
// process (workers accumulate concurrently).
type PhaseWall struct {
	AllocSeconds  float64 // allocation-fault rounds (full fidelity in both modes)
	PriceSeconds  float64 // parallel steady-state pricing (stage 1)
	MergeSeconds  float64 // serial merge of deferred mutations (stage 2)
	DaemonSeconds float64 // policy daemon tick (OS.Tick)
}

var (
	phaseTrackOn atomic.Bool
	phaseLabelOn atomic.Bool
	phaseWallNS  [numPhases]atomic.Int64
)

// phaseCtx holds one precomputed label context per phase plus the
// unlabeled base; precomputing keeps SetGoroutineLabels the only
// per-boundary cost (pprof.Do would build labels and allocate per call).
var phaseCtx = func() [numPhases + 1]context.Context {
	names := [numPhases]string{"alloc", "steady-price", "merge", "daemon"}
	var out [numPhases + 1]context.Context
	base := context.Background()
	for i, n := range names {
		out[i] = pprof.WithLabels(base, pprof.Labels("lpnuma_phase", n))
	}
	out[numPhases] = base
	return out
}()

// SetPhaseTracking turns process-wide per-phase wall accumulation on or
// off. Enabling does not reset previous totals; call ResetPhaseWall to
// start a fresh measurement window.
func SetPhaseTracking(on bool) { phaseTrackOn.Store(on) }

// SetPhaseLabels turns pprof phase labels on or off.
func SetPhaseLabels(on bool) { phaseLabelOn.Store(on) }

// ResetPhaseWall zeroes the accumulated per-phase totals.
func ResetPhaseWall() {
	for i := range phaseWallNS {
		phaseWallNS[i].Store(0)
	}
}

// PhaseWallSnapshot returns the accumulated per-phase wall seconds.
func PhaseWallSnapshot() PhaseWall {
	return PhaseWall{
		AllocSeconds:  float64(phaseWallNS[phaseAlloc].Load()) / 1e9,
		PriceSeconds:  float64(phaseWallNS[phasePrice].Load()) / 1e9,
		MergeSeconds:  float64(phaseWallNS[phaseMerge].Load()) / 1e9,
		DaemonSeconds: float64(phaseWallNS[phaseDaemon].Load()) / 1e9,
	}
}

// phaseEnter marks the start of phase p on the calling goroutine: the
// pprof label switches immediately, and the returned timestamp is
// non-zero only when tracking is on. Both switches off: two predictable
// branches, no time syscall, no label write.
func phaseEnter(p int) time.Time {
	if phaseLabelOn.Load() {
		pprof.SetGoroutineLabels(phaseCtx[p])
	}
	if !phaseTrackOn.Load() {
		return time.Time{}
	}
	//lpnuma:wallclock-ok opt-in phase diagnostics: host time is the measurement, never a simulation input
	return time.Now()
}

// phaseExit closes phase p: restores the unlabeled context and, when
// phaseEnter returned a live timestamp, adds the elapsed wall time to
// the process-wide totals.
func phaseExit(p int, t0 time.Time) {
	if phaseLabelOn.Load() {
		pprof.SetGoroutineLabels(phaseCtx[numPhases])
	}
	if !t0.IsZero() {
		//lpnuma:wallclock-ok opt-in phase diagnostics, same measurement as phaseEnter
		phaseWallNS[p].Add(time.Since(t0).Nanoseconds())
	}
}
