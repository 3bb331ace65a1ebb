// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (run `go test -bench=. -benchmem`):
//
//	BenchmarkFigure1 .. BenchmarkFigure5   — the five evaluation figures
//	BenchmarkTable1 .. BenchmarkTable3     — the three evaluation tables
//	BenchmarkOverhead                      — §4.2 overhead assessment
//	BenchmarkVeryLargePages                — §4.4 1 GB pages
//	BenchmarkBeyond                        — page-table placement + 1G ladder
//
// Each reports headline reproduction numbers as custom metrics (e.g.
// CG.D's THP degradation) alongside the usual ns/op. Ablation benchmarks
// exercise the design decisions called out in DESIGN.md (the
// split-granularity ablation flips an unexported switch, so it lives in
// internal/core), and micro-benchmarks cover the simulator's hot paths.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/lpnuma"
)

// benchScale shortens simulated runs so the full harness finishes in
// minutes; relative improvements are preserved.
const benchScale = 0.10

func benchCfg() lpnuma.ExperimentConfig {
	return lpnuma.ExperimentConfig{Seed: 1, WorkScale: benchScale}
}

// runExperiment regenerates one experiment per iteration and surfaces the
// chosen metrics on the benchmark output.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := lpnuma.RunExperiment(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for label, key := range metrics {
			if v, ok := res.Values[key]; ok {
				b.ReportMetric(v, label)
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"CG.D-B-THP-impr%": "B/CG.D/THP/improvement",
		"WC-B-THP-impr%":   "B/WC/THP/improvement",
	})
}

func BenchmarkFigure2(b *testing.B) {
	runExperiment(b, "fig2", map[string]string{
		"SSCA-A-Carr2M-impr%": "A/SSCA.20/Carrefour2M/improvement",
		"UA.B-B-Carr2M-impr%": "B/UA.B/Carrefour2M/improvement",
	})
}

func BenchmarkFigure3(b *testing.B) {
	runExperiment(b, "fig3", map[string]string{
		"CG.D-B-LP-impr%": "B/CG.D/CarrefourLP/improvement",
		"UA.B-A-LP-impr%": "A/UA.B/CarrefourLP/improvement",
	})
}

func BenchmarkFigure4(b *testing.B) {
	runExperiment(b, "fig4", map[string]string{
		"CG.D-B-Reactive-impr%":     "B/CG.D/Reactive/improvement",
		"CG.D-B-Conservative-impr%": "B/CG.D/Conservative/improvement",
	})
}

func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"WC-B-THP-impr%": "B/WC/THP/improvement",
		"pca-B-LP-impr%": "B/pca/CarrefourLP/improvement",
	})
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", map[string]string{
		"CG.D-B-THP-imbalance": "B/CG.D/THP/imbalance",
		"WC-B-4K-fault%":       "B/WC/Linux4K/faultshare",
	})
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", map[string]string{
		"CG.D-A-THP-NHP":  "A/CG.D/THP/nhp",
		"UA.B-A-THP-PSP%": "A/UA.B/THP/psp",
		"UA.B-A-4K-PSP%":  "A/UA.B/Linux4K/psp",
	})
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", map[string]string{
		"UA.B-A-LP-LAR%":       "A/UA.B/CarrefourLP/lar",
		"CG.D-B-LP-imbalance%": "B/CG.D/CarrefourLP/imbalance",
	})
}

func BenchmarkOverhead(b *testing.B) {
	runExperiment(b, "overhead", map[string]string{
		"mean-vs-Carr2M%": "summary/overhead-mean-vs-Carrefour2M",
	})
}

func BenchmarkVeryLargePages(b *testing.B) {
	runExperiment(b, "verylarge", map[string]string{
		"SSCA-1G-slowdown":          "A/SSCA.20/1g-slowdown",
		"streamcluster-1G-slowdown": "A/streamcluster/1g-slowdown",
	})
}

func BenchmarkBeyond(b *testing.B) {
	runExperiment(b, "beyond", map[string]string{
		"SSCA-A-Mitosis%": "A/SSCA.20/MitosisPTR/beyond-improvement",
		"SSCA-A-Trident%": "A/SSCA.20/TridentLP/beyond-improvement",
	})
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationIBSBuffers compares per-node IBS buffers (the paper's
// §4.3 scalability fix) against a single centralized buffer, at the
// drain-side cost level.
func BenchmarkAblationIBSBuffers(b *testing.B) {
	mk := func(nodes int) *ibs.Sampler {
		s := ibs.NewSampler(ibs.DefaultConfig(), nodes)
		for i := 0; i < 100000; i++ {
			s.Record(ibs.Sample{AccessorNode: uint8(i % nodes), DRAM: true, Weight: 1})
		}
		return s
	}
	b.Run("per-node-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := mk(8)
			b.StartTimer()
			if got := len(s.Drain()); got != 100000 {
				b.Fatal(got)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := mk(1)
			b.StartTimer()
			if got := len(s.Drain()); got != 100000 {
				b.Fatal(got)
			}
		}
	})
}

// --- Micro-benchmarks on simulator hot paths ---

func BenchmarkVMAccess(b *testing.B) {
	m := topo.MachineB()
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	space.AllocSize = func(*vm.Region, int) mem.PageSize { return mem.Size2M }
	r := space.Mmap("bench", 256<<20, true)
	rng := stats.NewRng(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(rng.Int63n(256 << 20))
		r.Access(topo.CoreID(i%64), i%64, off)
	}
}

func BenchmarkTLBAssess(b *testing.B) {
	model := tlb.NewModel()
	segs := []tlb.Segment{
		{Weight: 0.4, Pages: 100000, Size: mem.Size4K},
		{Weight: 0.3, Pages: 2048, Size: mem.Size4K},
		{Weight: 0.2, Pages: 800, Size: mem.Size2M},
		{Weight: 0.1, Pages: 120000, Size: mem.Size4K, Sequential: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Assess(segs)
	}
}

func BenchmarkSteadyAccessGeneration(b *testing.B) {
	m := topo.MachineB()
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	spec, err := workloads.ByName("CG.D")
	if err != nil {
		b.Fatal(err)
	}
	in, err := workloads.Build(spec, space, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRng(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.NextSteady(i%64, rng)
	}
}

// BenchmarkArenaTeardown maps and unmaps an arena the size of WC.churn's
// 60 GiB map-phase arena on a fresh machine B: every 4 KB page is first
// touched from a core picked by a hash of its index, scattering the
// frames over all eight nodes the way InitStriped does, and one Unmap
// then returns them through mem.FreeRun's random-victim release. The
// unmap-ns/op metric is the teardown alone.
func BenchmarkArenaTeardown(b *testing.B) {
	const arena = 60 << 30
	m := topo.MachineB()
	cores := uint64(m.TotalCores())
	var unmapNs int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
		space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
		r := space.Mmap("arena", arena, false)
		for p := uint64(0); p < arena/uint64(mem.Size4K); p++ {
			h := p * 0x9E3779B97F4A7C15
			core := (h ^ h>>31) % cores
			r.Access(topo.CoreID(core), int(core), p*uint64(mem.Size4K))
		}
		start := time.Now()
		if got := r.Unmap(0, arena); got != arena {
			b.Fatalf("unmapped %d of %d bytes", got, uint64(arena))
		}
		unmapNs += time.Since(start).Nanoseconds()
	}
	b.ReportMetric(float64(unmapNs)/float64(b.N), "unmap-ns/op")
}

// BenchmarkGroupSamples groups one full-volume Carrefour-LP interval on
// a warm scratch: 200k IBS samples from 8 nodes spread over 50k pages,
// 20k of them 2 MB chunks and 30k the 4 KB pages of 600 split chunks.
func BenchmarkGroupSamples(b *testing.B) {
	const count, chunks2M, pages4K, subsPerSplit = 200000, 20000, 30000, 50
	m := topo.MachineB()
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	r := space.Mmap("bench", uint64(chunks2M+pages4K/subsPerSplit)*uint64(mem.Size2M), true)
	rng := stats.NewRng(1)
	samples := make([]ibs.Sample, count)
	for i := range samples {
		id := vm.PageID{Region: r, Chunk: rng.Intn(chunks2M + pages4K), Sub: -1}
		if q := id.Chunk - chunks2M; q >= 0 {
			id.Chunk, id.Sub = chunks2M+q/subsPerSplit, q%subsPerSplit*(vm.SubsPerChunk/subsPerSplit)
		}
		samples[i] = ibs.Sample{
			Page: id, Weight: float64(1 + rng.Intn(4)), Thread: int32(rng.Intn(64)),
			AccessorNode: uint8(rng.Intn(8)), HomeNode: uint8(rng.Intn(8)), DRAM: rng.Intn(8) != 0,
		}
	}
	var gs carrefour.GroupScratch
	gs.Group(samples, m.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs.Group(samples, m.Nodes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/sample")
}

func BenchmarkSingleRunCGD(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.WorkScale = benchScale
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(runner.Request{Machine: "B", Workload: "CG.D", Policy: "CarrefourLP", Seed: 1, Cfg: &cfg})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RuntimeSeconds, "sim-s")
	}
}

var _ = policy.Names // ensure the policy package stays linked in the harness
