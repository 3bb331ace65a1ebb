package sim

// endEpoch is the end-epoch phase: the controller and fabric models
// turn the epoch's traffic into next epoch's latencies (§4.1), and the
// simulated clock advances.
func (e *Engine) endEpoch(epochCycles float64) {
	e.env.Phys.EndEpoch(epochCycles)
	e.env.Fabric.EndEpoch(epochCycles)
	e.nowCycles += epochCycles
}

// daemon is the daemon phase: the policy ticks, and its overhead cycles
// are stolen evenly from every thread's next budget.
func (e *Engine) daemon() {
	oh := e.os.Tick(e.env, e.nowCycles/e.machine.FreqHz)
	if oh > 0 {
		e.overhead += oh
		per := oh / float64(e.threads)
		for t := range e.stolen {
			e.stolen[t] += per
		}
	}
}
