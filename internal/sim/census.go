package sim

// census is the epoch's census phase (ModeAnalytic, and only when some
// thread runs steady state): the placement census catches up with every
// mapping change, and refreshContention decides what pricing may reuse.
func (e *Engine) census(fired, allocRan bool, nrun int, epochCycles float64) {
	if nrun == 0 || e.aDist == nil {
		return
	}
	// The census must track every placement change immediately: pricing
	// even a few epochs of stale placement feeds wrong traffic into the
	// controller models, and the migration daemons' control loops amplify
	// the error (tested: a 4-epoch refresh throttle moved imbalance by
	// >20 points on migration-heavy cells).
	e.refreshNodeDists()
	e.refreshContention(fired, allocRan, epochCycles)
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
		nowEnd := (e.nowCycles + epochCycles) / e.machine.FreqHz
		quiet = e.os.NextDaemonDue(nowEnd) > nowEnd
	}
	e.epochQuiet = quiet
	if quiet {
		e.quietEpochs++
	}
}
