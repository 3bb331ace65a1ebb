package sim

import (
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// allocate is the epoch's alloc phase: it grants each thread its epoch
// budget (less the cycles it owes), runs the allocation rounds, and at
// the initialization barrier marks the threads that run steady state
// this epoch. It reports whether any thread ran an allocation round and
// how many threads are runnable.
func (e *Engine) allocate(epoch int, epochCycles float64) (allocRan bool, nrun int) {
	budgets := e.budgets
	for t := range budgets {
		budgets[t] = epochCycles - e.stolen[t]
		e.stolen[t] = 0
	}
	allocRan = e.runAllocRounds(epoch, budgets)
	// Initialization barrier: steady-state work starts only once every
	// thread has finished its allocation phase, as in the real programs.
	barrier := e.wl.AllocAllDone()
	if barrier && !e.resetAtBarrier {
		// Ground-truth page metrics (PAMUP/NHP/PSP) describe steady-state
		// behaviour; exclude the first-touch pass, whose weight is
		// inflated by the scaled-down run lengths.
		e.env.Space.ResetAccessCounters()
		e.resetAtBarrier = true
	}
	for t := 0; t < e.threads; t++ {
		e.ts[t].ran = false
		if e.finishTime[t] >= 0 || !barrier {
			continue
		}
		if budgets[t] <= 0 {
			e.stolen[t] = -budgets[t]
			continue
		}
		e.ts[t].ran = true
		nrun++
	}
	return allocRan, nrun
}

// runAllocRounds advances allocation phases in small per-thread time
// slices so faulting threads genuinely contend. The visit order is
// re-shuffled every round: which thread wins the race to an unclaimed
// chunk is timing noise on real hardware, not a function of thread ids.
// Allocation stays serial: it is the phase whose whole point is
// cross-thread contention (racing first-touches, page-table locks), so
// threads are not independent within an epoch here. It reports whether
// any thread entered an allocation round — allocation mutates mappings
// and records traffic, so such an epoch can never be quiescent.
func (e *Engine) runAllocRounds(epoch int, budgets []float64) bool {
	active := e.allocActive[:0]
	allocCount := e.allocCount
	for t := 0; t < e.threads; t++ {
		allocCount[t] = 0
		if !e.wl.AllocDone(t) && budgets[t] > 0 {
			active = append(active, t)
		}
	}
	ran := len(active) > 0
	round := 0
	var shuffleRng stats.Rng
	for len(active) > 0 {
		e.rng.SplitInto(0xa110c<<20|uint64(epoch)<<8|uint64(round&0xff), &shuffleRng)
		for i := len(active) - 1; i > 0; i-- {
			j := shuffleRng.Intn(i + 1)
			active[i], active[j] = active[j], active[i]
		}
		round++
		next := active[:0]
		for _, t := range active {
			src := int(e.machine.NodeOf(e.core(t)))
			latRow := e.lat[src*e.nodes : (src+1)*e.nodes]
			if e.cfg.Reference {
				e.allocSlicePerPage(t, budgets, allocCount, src, latRow)
			} else {
				e.allocSliceBatched(t, budgets, allocCount, src, latRow)
			}
			if !e.wl.AllocDone(t) && budgets[t] > 0 && allocCount[t] < e.maxAlloc {
				next = append(next, t)
			}
		}
		active = next
	}
	e.allocActive = active[:0]
	return ran
}

// allocSlicePerPage runs one thread's allocation time slice touch by
// touch through vm.Access — the reference path the batched slice must
// reproduce byte for byte (Config.Reference forces it everywhere).
func (e *Engine) allocSlicePerPage(t int, budgets []float64, allocCount []int, src int, latRow []float64) {
	var spent float64
	for spent < allocRoundCycles {
		if budgets[t] <= 0 || allocCount[t] >= e.maxAlloc {
			break
		}
		if !e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow) {
			break
		}
	}
}

// allocOneSlow performs exactly one first-touch through the full
// vm.Access fault path (with its capacity and fragmentation fallbacks)
// and charges it with the alloc phase's per-touch arithmetic. It is the
// whole per-page reference path, and the batched slice's escape hatch
// for the rare touch whose fault pre-checks fail — precisely the touches
// whose outcome the fallback chain decides. Reports whether a touch was
// consumed.
func (e *Engine) allocOneSlow(t int, budgets []float64, allocCount []int, spent *float64, src int, latRow []float64) bool {
	touch, ok := e.wl.NextAlloc(t)
	if !ok {
		return false
	}
	allocCount[t]++
	res := touch.Region.VM.Access(e.core(t), t, touch.Off)
	node := res.Node
	// Initialization is a streaming write pass: one DRAM line
	// fill per 8 accesses.
	const dramFrac = 0.125
	lat := latRow[node]
	per := 4 + dramFrac*lat*(1-e.wl.Spec.MLPOverlap)
	cost := res.FaultCycles + touch.Weight*per
	budgets[t] -= cost
	*spent += cost
	reqs := touch.Weight * dramFrac
	e.env.Phys.Record(node, reqs)
	e.env.Fabric.Record(topo.NodeID(src), node, reqs)
	e.counters.Accesses += touch.Weight
	if int(node) == src {
		e.counters.LocalDRAM += reqs
	} else {
		e.counters.RemoteDRAM += reqs
	}
	e.counters.DataL2Misses += reqs
	return true
}

// allocSliceBatched runs one thread's allocation time slice span by span
// (DESIGN.md §4.11): it classifies the maximal leading run of the
// thread's pending first-touches that resolves to one (chunk, node,
// size), prices the whole run with one latency lookup, replays the
// per-touch budget arithmetic to find how many touches the slice
// affords, and commits them through one vm.ApplyAlloc* operation — one
// buddy transaction, one accounting pass. Every float accumulator
// advances by the same per-touch addition sequence as the per-page path,
// so the result is byte-identical to a Config.Reference run; runs whose
// fault pre-checks fail fall back to allocOneSlow, which replays the
// fallback chain exactly.
func (e *Engine) allocSliceBatched(t int, budgets []float64, allocCount []int, src int, latRow []float64) {
	var spent float64
	core := e.core(t)
	rc := allocRoundCycles
	maxAlloc := e.maxAlloc
	for spent < rc {
		if budgets[t] <= 0 || allocCount[t] >= maxAlloc {
			break
		}
		br, pages, ok := e.wl.PeekAllocRun(t)
		if !ok {
			break
		}
		run := br.VM.ClassifyAllocRun(core, pages)
		var faultEach float64
		switch run.Kind {
		case vm.AllocRunFault4K:
			// Cap the run at the node's free 4 KB frames: within that cap
			// the buddy cannot fail (any free block splits down to 4 KB),
			// beyond it the per-page fallback chain decides the outcome.
			free := int(e.env.Phys.FreeBytes(run.Node) / uint64(mem.Size4K))
			if free <= 0 {
				e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow)
				continue
			}
			if run.N > free {
				run.N = free
			}
			faultEach = e.env.Space.FaultCostFor(mem.Size4K)
		case vm.AllocRunFault2M:
			if !e.env.Phys.FreeContiguous(run.Node, mem.Size2M) {
				e.allocOneSlow(t, budgets, allocCount, &spent, src, latRow)
				continue
			}
			faultEach = e.env.Space.FaultCostFor(mem.Size2M)
		}
		// Initialization is a streaming write pass: one DRAM line
		// fill per 8 accesses.
		const dramFrac = 0.125
		weight := workloads.TouchWeight(br)
		lat := latRow[run.Node]
		per := 4 + dramFrac*lat*(1-e.wl.Spec.MLPOverlap)
		cost := faultEach + weight*per
		reqs := weight * dramFrac
		// Replay the per-touch budget arithmetic to find how many of the
		// run's touches this slice affords. The first iteration's checks
		// mirror the loop-top checks that already passed.
		budget := budgets[t]
		cnt := allocCount[t]
		k := 0
		for k < run.N {
			if spent >= rc || budget <= 0 || cnt >= maxAlloc {
				break
			}
			cnt++
			budget -= cost
			spent += cost
			k++
		}
		switch run.Kind {
		case vm.AllocRunHit:
			br.VM.ApplyAllocHitRun(t, pages, k)
		case vm.AllocRunFault4K:
			br.VM.ApplyAllocFault4KRun(core, t, run.Node, pages, k, faultEach)
		default: // vm.AllocRunFault2M, k == 1
			br.VM.ApplyAllocFault2M(core, t, pages[0], run.Node, faultEach)
		}
		e.wl.AdvanceAlloc(t, k)
		budgets[t] = budget
		allocCount[t] = cnt
		e.env.Phys.RecordN(run.Node, reqs, k)
		e.env.Fabric.RecordN(topo.NodeID(src), run.Node, reqs, k)
		acc := e.counters.Accesses
		for i := 0; i < k; i++ {
			acc += weight
		}
		e.counters.Accesses = acc
		if int(run.Node) == src {
			local := e.counters.LocalDRAM
			for i := 0; i < k; i++ {
				local += reqs
			}
			e.counters.LocalDRAM = local
		} else {
			remote := e.counters.RemoteDRAM
			for i := 0; i < k; i++ {
				remote += reqs
			}
			e.counters.RemoteDRAM = remote
		}
		dl2 := e.counters.DataL2Misses
		for i := 0; i < k; i++ {
			dl2 += reqs
		}
		e.counters.DataL2Misses = dl2
	}
}
