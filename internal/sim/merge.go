package sim

import (
	"repro/internal/topo"
)

// merge is the epoch's merge phase (stage 2, serial, in thread order):
// it replays every priced thread's deferred mutations into the shared
// models. The fixed order makes the result independent of how stage 1
// was scheduled. It reports whether every thread has finished.
func (e *Engine) merge() bool {
	done := true
	for t := 0; t < e.threads; t++ {
		if e.ts[t].ran {
			e.mergeSteady(t)
		}
		if e.finishTime[t] < 0 {
			done = false
		}
	}
	return done
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
