package sim

// Epoch-level benchmark harness behind lpbench's sim.epoch_full_us and
// sim.epoch_quiet_us metrics. They track the per-epoch cost of the
// analytic pricing stage across builds, and that number lives inside
// the engine (a steady epoch, not a whole run: whole runs are dominated
// by the full-fidelity allocation phase and the shared merge stage,
// which both modes execute identically).
// The harness reuses the exact pricing entry points the engine's own
// epoch loop calls, so what it times is what runs.

import (
	"fmt"
	"time"
)

// EpochBenchResult reports seconds per steady-state pricing epoch for
// the analytic engine on its Config.Reference path (the §4.7 baseline:
// every expectation term rebuilt) and for the §4.10 quiescent fast path
// (warm memos, nothing changed, telemetry deferred).
type EpochBenchResult struct {
	FullSeconds      float64
	QuiescentSeconds float64
	// Threads is how many simulated threads each epoch priced.
	Threads int
}

// BenchAnalyticEpoch advances a fresh ModeAnalytic engine past its
// allocation barrier, then times `reps` repricings of one steady-state
// epoch in both variants. The engine is spent afterwards: discard it.
// Nothing about a run's results is observable, so the harness cannot
// perturb any simulation contract.
func (e *Engine) BenchAnalyticEpoch(reps int) (EpochBenchResult, error) {
	if e.cfg.Mode != ModeAnalytic {
		return EpochBenchResult{}, fmt.Errorf("sim: epoch benchmark needs a %v engine, got %v", ModeAnalytic, e.cfg.Mode)
	}
	e.cfg.Reference = false
	epochCycles := epochSeconds * e.machine.FreqHz
	for epoch := 0; epoch < 10000 && !e.wl.AllocAllDone(); epoch++ {
		e.runEpoch(epoch, epochCycles)
	}
	if !e.wl.AllocAllDone() {
		return EpochBenchResult{}, fmt.Errorf("sim: allocation phase did not finish")
	}
	e.env.Space.BeginEpoch()
	e.snapshotEpoch()
	e.refreshNodeDists()
	assess := e.tlbModel.Assess(e.wl.TLBSegments(0, e.counts))

	price := func(full, quiet bool) {
		e.cfg.Reference = full
		e.epochQuiet = quiet
		for t := 0; t < e.threads; t++ {
			e.budgets[t] = epochCycles
			e.progress[t] = 0
			e.finishTime[t] = -1
			e.stolen[t] = 0
			e.ts[t].ran = true
			e.priceAnalytic(t, 0, epochCycles, assess, false)
		}
		e.cfg.Reference = false
		e.epochQuiet = false
	}
	timed := func(full, quiet bool) float64 {
		//lpnuma:wallclock-ok epoch wall-time benchmark: host time is the measurement, not a simulation input
		start := time.Now()
		for r := 0; r < reps; r++ {
			price(full, quiet)
		}
		//lpnuma:wallclock-ok same measurement as above
		return time.Since(start).Seconds() / float64(reps)
	}
	price(false, false) // warm scratch capacity and memos
	res := EpochBenchResult{Threads: e.threads}
	res.FullSeconds = timed(true, false)
	res.QuiescentSeconds = timed(false, true)
	return res, nil
}
