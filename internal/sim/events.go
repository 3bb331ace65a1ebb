package sim

import (
	"repro/internal/cache"
	"repro/internal/workloads"
)

// fireEvents is the epoch's events phase: it opens the epoch (the vm's
// lagged fault-contention roll) and fires every event whose boundary the
// slowest thread has reached, reporting whether any did. Events fire
// serially before the snapshot and the pricing stage, so every thread
// prices the post-event workload shape — the settle clamp guarantees no
// thread has worked past the boundary.
func (e *Engine) fireEvents() bool {
	e.env.Space.BeginEpoch()
	if !e.wl.HasEvents() || e.wl.ApplyReadyEvents(e.minWorkFrac()) == 0 {
		return false
	}
	e.growRegionState()
	return true
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
// region count: New sizes them with it, and the events phase calls it
// again after an Alloc event. It must run before the snapshot phase,
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
