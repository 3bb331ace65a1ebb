package sim

import (
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// snapshot is the epoch's snapshot phase: it refreshes the read-only
// state every pricing worker shares — page census, cache profiles,
// per-region churn cost, and the flat DRAM latency table (all lagged
// values, constant until the next EndEpoch) — and returns the epoch's
// TLB assessment (identical across threads by symmetry). In ModeAnalytic
// the per-region census and cache profile are functions of the mapping
// alone, so they are recomputed only for regions whose vm generation
// moved since the last scan; a moved region or a fired event advances
// the geometry generation and invalidates the cached assessment, which
// is otherwise reused (it is a function of the phase weights and the
// page census only).
func (e *Engine) snapshot(fired bool) tlb.Assessment {
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
	// Events rewrite region weights without touching any mapping —
	// freeing a never-faulted region releases nothing and bumps no Gen
	// (the weights.eq identity cell) — so a fired event invalidates too.
	if incr && (moved || fired) {
		e.geomGen++
		e.assessValid = false
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
	if !e.assessValid || e.cfg.Reference || !incr {
		e.assessCache = e.tlbModel.Assess(e.wl.TLBSegments(e.counts))
		e.assessValid = true
	}
	return e.assessCache
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
