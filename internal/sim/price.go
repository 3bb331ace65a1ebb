package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
)

// priceAll is the epoch's price phase (stage 1): it prices every one of
// the nrun runnable threads against the shared read-only snapshot, into
// per-thread scratch, fanning out over a bounded worker set when more
// than one worker is available.
func (e *Engine) priceAll(epoch int, epochCycles float64, assess tlb.Assessment, nrun int) {
	if nrun == 0 {
		return
	}
	workers, borrowed := e.steadyWorkers(nrun)
	defer func() {
		if borrowed > 0 {
			e.cfg.Pool.ReleaseN(borrowed)
		}
	}()
	if workers <= 1 {
		for t := 0; t < e.threads; t++ {
			if e.ts[t].ran {
				e.priceThread(t, epoch, epochCycles, assess, false)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= e.threads {
					return
				}
				if e.ts[t].ran {
					e.priceThread(t, epoch, epochCycles, assess, true)
				}
			}
		}()
	}
	wg.Wait()
}

// steadyWorkers decides how many goroutines stage 1 may use and borrows
// any extra tokens from the shared pool; the caller must return borrowed
// tokens with ReleaseN. The worker count can never change results, only
// wall-clock time.
func (e *Engine) steadyWorkers(nrun int) (workers, borrowed int) {
	limit := runtime.GOMAXPROCS(0)
	if limit > nrun {
		limit = nrun
	}
	if limit < 1 {
		limit = 1
	}
	if e.workers > 0 {
		return min(e.workers, limit), 0
	}
	if e.cfg.Pool != nil {
		// The engine's own goroutine already holds one token (its
		// scheduler slot); free tokens become extra workers for this
		// epoch only.
		borrowed = e.cfg.Pool.TryAcquire(limit - 1)
		return 1 + borrowed, borrowed
	}
	return limit, 0
}

// priceThread prices one thread's steady-state epoch under the
// configured mode. Both implementations share the contract documented on
// priceSteady: read only the epoch snapshot and per-thread state, write
// only per-thread scratch plus commutative access accounting.
//
//lpnuma:noalloc steady-state epochs run once per simulated quantum; TestSteadyEpochZeroAlloc and TestAnalyticEpochZeroAlloc enforce this at runtime
func (e *Engine) priceThread(t, epoch int, epochCycles float64, assess tlb.Assessment, shared bool) {
	if e.cfg.Mode == ModeAnalytic {
		e.priceAnalytic(t, epoch, epochCycles, assess, shared)
		return
	}
	e.priceSteady(t, epoch, epochCycles, assess, shared)
}

// pricingCtx is the per-thread epoch context shared by both pricing
// stages: the thread's reset scratch plus the read-only row views of the
// epoch snapshot. Centralizing it in beginPricing keeps the two stages
// from drifting — a scratch field whose reset appears in only one mode
// would carry stale state across epochs there.
type pricingCtx struct {
	s           *threadScratch
	core        topo.CoreID
	src         int
	startBudget float64
	// ibsPerAccess is the expected IBS interrupt overhead per access.
	ibsPerAccess float64
	work         float64
	phase        int
	latRow       []float64
	fabRow       []float64 // nil unless page-table locality pricing is on
	mlp          float64
}

// beginPricing re-seeds thread t's epoch stream, clears its scratch, and
// assembles the context both pricing implementations consume.
func (e *Engine) beginPricing(t, epoch int) pricingCtx {
	s := &e.ts[t]
	e.rng.SplitInto(uint64(epoch)<<20|uint64(t)<<1|1, &s.rng)
	for i := range s.homeCnt {
		s.homeCnt[i] = 0
	}
	for i := range s.walkCnt {
		s.walkCnt[i] = 0
	}
	s.samples = s.samples[:0]
	s.faultLog = s.faultLog[:0]
	s.acctLog = s.acctLog[:0]
	s.pendFaults = s.pendFaults[:0]
	s.markFaulter = false
	s.flush = false
	s.finished = false

	spec := e.wl.Spec
	px := pricingCtx{
		s:            s,
		core:         e.core(t),
		startBudget:  e.budgets[t],
		ibsPerAccess: e.ibs.Rate * e.ibs.CyclesPerSample,
		work:         spec.WorkPerThread,
		mlp:          1 - spec.MLPOverlap,
	}
	px.src = int(e.machine.NodeOf(px.core))
	if e.cfg.WorkScale > 0 {
		px.work *= e.cfg.WorkScale
	}
	px.phase = e.wl.PhaseAt(e.progress[t] / px.work)
	px.latRow = e.lat[px.src*e.nodes : (px.src+1)*e.nodes]
	if e.ptHome != nil {
		px.fabRow = e.fabLat[px.src*e.nodes : (px.src+1)*e.nodes]
	}
	return px
}

// priceSteady prices one thread's steady-state epoch into its scratch.
// It reads only the epoch snapshot, per-thread state and the (stable
// between epochs) mapping tables, and writes only per-thread state plus
// the commutative access accounting (atomically when shared is set) — it
// must not otherwise touch the shared models, which stage 2 updates in
// thread order. This loop is the hottest code in the repository and
// holds the zero-allocation invariant asserted by BenchmarkSteadyEpoch.
func (e *Engine) priceSteady(t, epoch int, epochCycles float64, assess tlb.Assessment, shared bool) {
	px := e.beginPricing(t, epoch)
	s := px.s
	rng := &s.rng
	spec := e.wl.Spec
	core := px.core
	src := px.src
	startBudget := px.startBudget
	ibsPerAccess := px.ibsPerAccess
	work := px.work
	phase := px.phase
	latRow := px.latRow
	ptHomes := e.ptHome // nil unless page-table locality pricing is on
	fabRow := px.fabRow
	mlp := px.mlp

	var sumCost, faultDirect float64
	var local, remote, dataL2, ptwL2, tlbMiss, churnCycles float64
	K := e.samples
	for i := 0; i < K; i++ {
		acc := e.wl.NextSteadyPhase(t, rng, phase)
		br := e.wl.Regions[acc.RegionIdx]
		res, st := br.VM.PeekRecord(acc.Off, t, shared)
		if st != vm.PeekMapped {
			var fcost float64
			res, fcost = s.resolveFault(br.VM, int32(acc.RegionIdx), core, acc.Off)
			if fcost > 0 {
				faultDirect += fcost
				//lpnuma:alloc-ok scratch append; capacity stabilizes after warm-up (TestSteadyEpochZeroAlloc)
				s.faultLog = append(s.faultLog, accessRec{off: acc.Off, cost: fcost, region: int32(acc.RegionIdx)})
			}
			if st == vm.PeekUnmappedChunk {
				// Accounting granularity is decided by the fault replay.
				//lpnuma:alloc-ok scratch append; drains each epoch like faultLog
				s.acctLog = append(s.acctLog, accessRec{off: acc.Off, region: int32(acc.RegionIdx)})
			}
		}
		cost := spec.ExtraCyclesPerAccess + ibsPerAccess

		// Translation.
		u := rng.Float64()
		if u >= assess.L1Hit {
			if u < assess.L1Hit+assess.L2Hit {
				cost += tlb.L2HitCycles
			} else {
				cost += assess.WalkCycles
				tlbMiss++
				ptwL2 += assess.WalkL2Misses
				if ptHomes != nil {
					// NUMA-aware page tables: the walk's DRAM fetches go
					// to the accessed region's PT home node, paying the
					// fabric on top when that node is remote.
					home := int(ptHomes[acc.RegionIdx])
					if home < 0 {
						home = src
					} else if home != src {
						cost += assess.RemoteWalkCycles(fabRow[home])
					}
					s.walkCnt[home] += assess.WalkDRAMFetches()
				}
			}
		}

		// Allocation churn (expectation per access, hoisted per region).
		if br.Spec.ChurnPer1K > 0 {
			cc := e.churnPer[acc.RegionIdx]
			cost += cc
			churnCycles += cc
			s.markFaulter = true
		}

		// Cache hierarchy.
		p := e.profiles[acc.RegionIdx]
		v := rng.Float64()
		switch {
		case v < p.L1:
			cost += e.hier.L1Cycles
		case v < p.L1+p.L2:
			cost += e.hier.L2Cycles
		case v < p.L1+p.L2+p.L3:
			cost += e.hier.L3Cycles
			dataL2++
		default:
			dataL2++
			home := int(res.Node)
			cost += latRow[home] * mlp
			s.homeCnt[home]++
			if home == src {
				local++
			} else {
				remote++
			}
			if rng.Bernoulli(e.ibs.RecordRate) {
				//lpnuma:alloc-ok scratch append; capacity stabilizes after warm-up (TestSteadyEpochZeroAlloc)
				s.samples = append(s.samples, ibs.Sample{
					Page: res.Page, Off: acc.Off, Thread: int32(t), Core: int32(core),
					AccessorNode: uint8(src), HomeNode: uint8(res.Node), DRAM: true,
				})
			}
		}
		sumCost += cost
	}

	if !e.settleThread(t, phase, startBudget, epochCycles, sumCost/float64(K), faultDirect, work) {
		return
	}
	s.local, s.remote, s.dataL2 = local, remote, dataL2
	s.ptwL2, s.tlbMiss, s.churn = ptwL2, tlbMiss, churnCycles
}

// settleThread is the pricing epilogue shared by the sampled and
// analytic stages: it charges direct fault time, converts the average
// per-access cost into scaled progress (clamped to the next phase
// boundary and the thread's remaining work), and fixes the epoch's
// flush scale. It reports false when fault time alone ate the budget —
// no scaled progress this epoch; the deferred access log still replays
// (the faults really happened), only the scaled flush is skipped.
func (e *Engine) settleThread(t, phase int, startBudget, epochCycles, avg, faultDirect, work float64) bool {
	s := &e.ts[t]
	e.budgets[t] -= faultDirect
	if e.budgets[t] <= 0 {
		e.stolen[t] = -e.budgets[t]
		return false
	}
	s.flush = true
	if avg <= 0 {
		avg = 1
	}
	realAccesses := e.budgets[t] / avg
	remaining := work - e.progress[t]
	// Do not run past the next phase boundary: the new mix must be
	// re-priced before it contributes progress.
	if next := e.wl.NextPhaseBoundary(phase); next > 0 {
		if left := next*work - e.progress[t]; left > 0 && realAccesses > left {
			realAccesses = left
		}
	}
	// Event boundaries are global barriers, not per-thread phase edges:
	// until the mutation has applied (which requires every thread to
	// arrive), a thread at the boundary performs no work at all — running
	// ahead would price the pre-event workload shape past the event.
	if eb := e.wl.NextEventBoundary(); eb > 0 {
		if left := eb*work - e.progress[t]; realAccesses > left {
			if left < 0 {
				left = 0
			}
			realAccesses = left
		}
	}
	if realAccesses >= remaining {
		realAccesses = remaining
		used := startBudget - e.budgets[t] + realAccesses*avg
		frac := used / epochCycles
		if frac > 1 {
			frac = 1
		}
		e.finishTime[t] = e.nowCycles/e.machine.FreqHz + frac*epochSeconds
		s.finished = true
	} else {
		e.budgets[t] = 0
	}
	e.progress[t] += realAccesses
	s.realAccesses = realAccesses
	s.scale = realAccesses / float64(e.samples)
	return true
}

// resolveFault prices a steady-state touch of an unmapped page during
// the parallel stage: the first touch per page plans a fault
// (read-only) and remembers it, repeated touches resolve against the
// thread's own pending faults. Cross-thread racing faults are settled by
// the merge stage: every racer pays its handler time (they genuinely
// serialize on the page-table lock), the lowest-indexed thread's
// placement wins.
func (s *threadScratch) resolveFault(r *vm.Region, ri int32, core topo.CoreID, off uint64) (vm.AccessResult, float64) {
	ci := int32(off / uint64(mem.Size2M))
	sub := int32(off % uint64(mem.Size2M) / uint64(mem.Size4K))
	for _, pf := range s.pendFaults {
		if pf.region != ri || pf.ci != ci {
			continue
		}
		if pf.sub < 0 {
			return vm.AccessResult{Node: pf.node, PageSize: mem.Size2M,
				Page: vm.PageID{Region: r, Chunk: int(ci), Sub: -1}}, 0
		}
		if pf.sub == sub {
			return vm.AccessResult{Node: pf.node, PageSize: mem.Size4K,
				Page: vm.PageID{Region: r, Chunk: int(ci), Sub: int(sub)}}, 0
		}
	}
	size, node, cost := r.PlanFault(core, off)
	psub := sub
	pageSub := int(sub)
	if size == mem.Size2M {
		psub, pageSub = -1, -1
	}
	//lpnuma:alloc-ok scratch append; pending faults drain each epoch and capacity stabilizes
	s.pendFaults = append(s.pendFaults, pendingFault{region: ri, ci: ci, sub: psub, node: node})
	return vm.AccessResult{Node: node, PageSize: size,
		Page:    vm.PageID{Region: r, Chunk: int(ci), Sub: pageSub},
		Faulted: true, FaultCycles: cost}, cost
}
