package sim

import (
	"repro/internal/perf"
	"repro/internal/stats"
)

// finalize is the run's finalize phase: it assembles the Result of a run
// that ended after epochs epochs.
func (e *Engine) finalize(epochs int, timedOut bool) Result {
	runtime := 0.0
	for t := 0; t < e.threads; t++ {
		if e.finishTime[t] > runtime {
			runtime = e.finishTime[t]
		}
	}
	if timedOut {
		runtime = float64(epochs) * epochSeconds
	}
	res := Result{
		Workload:             e.wl.Spec.Name,
		Policy:               e.os.Name(),
		Machine:              e.machine.Name,
		RuntimeSeconds:       runtime,
		TimedOut:             timedOut,
		Epochs:               epochs,
		Counters:             e.counters,
		LARPct:               e.counters.LARPct(),
		ImbalancePct:         e.env.Phys.ImbalancePct(),
		PTWSharePct:          e.counters.PTWL2MissSharePct(),
		PageMetrics:          perf.ComputePageMetrics(e.env.Space),
		DaemonOverheadCycles: e.overhead,
	}
	fc := e.env.Snapshot().FaultCycles
	runtimeCycles := runtime * e.machine.FreqHz
	res.MaxFaultSharePct = perf.MaxFaultSharePct(fc, runtimeCycles)
	res.MaxCoreFaultSeconds = stats.Max(fc) / e.machine.FreqHz
	taken, _ := e.env.Sampler.Stats()
	res.IBSSamplesTaken = taken
	n4, n2, n1 := e.env.Space.FaultCounts()
	res.FaultCounts = [3]uint64{n4, n2, n1}
	return res
}
