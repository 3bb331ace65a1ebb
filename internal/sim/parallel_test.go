package sim

import (
	"runtime"
	"testing"

	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// The engine's central parallelism contract — sim.Result byte-identical
// for any worker count — is asserted over *every* policy in
// TestResultIdenticalAcrossWorkerCounts (identity_test.go,
// external test package: the policy registry imports sim, so the matrix
// cannot live in this package).

// primeSteady advances an engine past its allocation barrier and runs
// the events and snapshot phases of a steady-state epoch (what runEpoch
// builds before pricing), so benchmarks can exercise the sampling loop
// alone.
func primeSteady(tb testing.TB, e *Engine) (tlb.Assessment, float64) {
	tb.Helper()
	epochCycles := epochSeconds * e.machine.FreqHz
	for epoch := 0; epoch < 10000; epoch++ {
		if e.wl.AllocAllDone() {
			break
		}
		e.runEpoch(epoch, epochCycles)
	}
	if !e.wl.AllocAllDone() {
		tb.Fatal("allocation phase did not finish")
	}
	return e.snapshot(e.fireEvents()), epochCycles
}

// priceOneEpoch reprices every thread's steady epoch serially with reset
// per-thread state, exactly the stage-1 work of one epoch.
func priceOneEpoch(e *Engine, assess tlb.Assessment, epochCycles float64) {
	for t := 0; t < e.threads; t++ {
		e.budgets[t] = epochCycles
		e.progress[t] = 0
		e.finishTime[t] = -1
		e.stolen[t] = 0
		e.ts[t].ran = true
		e.priceSteady(t, 0, epochCycles, assess, false)
	}
}

func steadyEngine(tb testing.TB) *Engine {
	tb.Helper()
	spec, err := workloads.ByName("CG.D")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WorkScale = 0.05
	eng, err := New(topo.MachineB(), spec, &thpOn{}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestSteadyEpochZeroAlloc pins the zero-allocation invariant of the
// steady-state sampling loop: once per-thread scratch is warm, pricing a
// full epoch for all 64 threads of machine B performs no heap
// allocation.
func TestSteadyEpochZeroAlloc(t *testing.T) {
	eng := steadyEngine(t)
	assess, epochCycles := primeSteady(t, eng)
	allocs := testing.AllocsPerRun(10, func() {
		priceOneEpoch(eng, assess, epochCycles)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pricing allocates %.1f times per epoch, want 0", allocs)
	}
}

// BenchmarkSteadyEpoch measures stage 1 of the engine: pricing one full
// steady-state epoch (64 threads × steadySamples accesses on machine B)
// against the epoch snapshot. Run with -benchmem; the allocation count
// must be 0 (also enforced by TestSteadyEpochZeroAlloc).
func BenchmarkSteadyEpoch(b *testing.B) {
	eng := steadyEngine(b)
	assess, epochCycles := primeSteady(b, eng)
	priceOneEpoch(eng, assess, epochCycles) // warm scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priceOneEpoch(eng, assess, epochCycles)
	}
}

// analyticEngine is steadyEngine in ModeAnalytic.
func analyticEngine(tb testing.TB) *Engine {
	tb.Helper()
	spec, err := workloads.ByName("CG.D")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WorkScale = 0.05
	cfg.Mode = ModeAnalytic
	eng, err := New(topo.MachineB(), spec, &thpOn{}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// priceOneEpochAnalytic is priceOneEpoch for the analytic stage.
func priceOneEpochAnalytic(e *Engine, assess tlb.Assessment, epochCycles float64) {
	e.refreshNodeDists()
	for t := 0; t < e.threads; t++ {
		e.budgets[t] = epochCycles
		e.progress[t] = 0
		e.finishTime[t] = -1
		e.stolen[t] = 0
		e.ts[t].ran = true
		e.priceAnalytic(t, 0, epochCycles, assess, false)
	}
}

// TestAnalyticEpochZeroAlloc pins the §4.6 zero-allocation invariant for
// the analytic pricing stage (DESIGN.md §4.7): closed-form accumulation,
// census draws, deterministic IBS thinning and the placement-census
// refresh all run on reused scratch.
func TestAnalyticEpochZeroAlloc(t *testing.T) {
	eng := analyticEngine(t)
	assess, epochCycles := primeSteady(t, eng)
	priceOneEpochAnalytic(eng, assess, epochCycles) // warm scratch capacity
	allocs := testing.AllocsPerRun(10, func() {
		priceOneEpochAnalytic(eng, assess, epochCycles)
	})
	if allocs != 0 {
		t.Fatalf("analytic pricing allocates %.1f times per epoch, want 0", allocs)
	}
}

// BenchmarkAnalyticEpoch is BenchmarkSteadyEpoch's analytic twin:
// pricing one full steady-state epoch for the 64 threads of machine B in
// closed form. Run with -benchmem; allocations must be 0 (also enforced
// by TestAnalyticEpochZeroAlloc). Compare against BenchmarkSteadyEpoch
// for the per-epoch engine speedup.
func BenchmarkAnalyticEpoch(b *testing.B) {
	eng := analyticEngine(b)
	assess, epochCycles := primeSteady(b, eng)
	priceOneEpochAnalytic(eng, assess, epochCycles) // warm scratch capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priceOneEpochAnalytic(eng, assess, epochCycles)
	}
}

// priceOneEpochQuiescent prices one epoch through the quiescent fast
// path (DESIGN.md §4.10): the engine is told every pricing input matched
// the previous epoch, so per-thread work reduces to two memo-key
// compares, O(nodes) aggregate copies, deferral bookkeeping and the
// settle arithmetic. Callers must warm the memos first (one
// priceOneEpochAnalytic pass) so the caches are populated.
func priceOneEpochQuiescent(e *Engine, assess tlb.Assessment, epochCycles float64) {
	e.refreshNodeDists()
	e.epochQuiet = true
	for t := 0; t < e.threads; t++ {
		e.budgets[t] = epochCycles
		e.progress[t] = 0
		e.finishTime[t] = -1
		e.stolen[t] = 0
		e.ts[t].ran = true
		e.priceAnalytic(t, 0, epochCycles, assess, false)
	}
	e.epochQuiet = false
}

// TestAnalyticQuiescentEpochZeroAlloc pins the quiescent-epoch
// invariant: once memos are warm, an epoch where nothing changed prices
// all 64 threads of machine B with no heap allocation — census draws
// and IBS thinning are deferred into counters, not buffers.
func TestAnalyticQuiescentEpochZeroAlloc(t *testing.T) {
	eng := analyticEngine(t)
	assess, epochCycles := primeSteady(t, eng)
	priceOneEpochAnalytic(eng, assess, epochCycles) // warm scratch and memos
	allocs := testing.AllocsPerRun(10, func() {
		priceOneEpochQuiescent(eng, assess, epochCycles)
	})
	if allocs != 0 {
		t.Fatalf("quiescent analytic pricing allocates %.1f times per epoch, want 0", allocs)
	}
}

// BenchmarkAnalyticEpochQuiescent measures the quiescent fast path
// against BenchmarkAnalyticEpoch: the same 64-thread machine-B epoch
// when the incremental engine proves nothing changed. The ratio between
// the two is the steady-state speedup of DESIGN.md §4.10 (target ≥5x).
func BenchmarkAnalyticEpochQuiescent(b *testing.B) {
	eng := analyticEngine(b)
	assess, epochCycles := primeSteady(b, eng)
	priceOneEpochAnalytic(eng, assess, epochCycles) // warm scratch and memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priceOneEpochQuiescent(eng, assess, epochCycles)
	}
}

// BenchmarkIBSThinning isolates the deterministic sample-thinning stage:
// expected-count emission with real page resolution for all 64 threads.
func BenchmarkIBSThinning(b *testing.B) {
	eng := analyticEngine(b)
	assess, epochCycles := primeSteady(b, eng)
	priceOneEpochAnalytic(eng, assess, epochCycles) // warm scratch + carries
	K := float64(eng.samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < eng.threads; t++ {
			s := &eng.ts[t]
			s.samples = s.samples[:0]
			s.faultLog = s.faultLog[:0]
			s.acctLog = s.acctLog[:0]
			s.pendFaults = s.pendFaults[:0]
			core := eng.core(t)
			src := int(eng.machine.NodeOf(core))
			eng.thinIBS(t, 0, src, core, s, &s.rng, K, false)
		}
	}
	_ = assess
	_ = epochCycles
}

// BenchmarkSteadyEpochParallel is BenchmarkSteadyEpoch through the real
// fan-out path (worker pool, atomic accounting), for comparing the
// shared-accounting overhead and the scaling on multi-core hosts.
func BenchmarkSteadyEpochParallel(b *testing.B) {
	eng := steadyEngine(b)
	SetWorkers(eng, runtime.NumCPU())
	assess, epochCycles := primeSteady(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < eng.threads; t++ {
			eng.budgets[t] = epochCycles
			eng.progress[t] = 0
			eng.finishTime[t] = -1
			eng.stolen[t] = 0
			eng.ts[t].ran = true
		}
		eng.priceAll(0, epochCycles, assess, eng.threads)
	}
}
