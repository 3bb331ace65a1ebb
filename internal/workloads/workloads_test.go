package workloads

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/vm"
)

func build(t *testing.T, spec Spec) *Instance {
	t.Helper()
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	in, err := Build(spec, space, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range append(append(Suite(), Streamcluster()), Dynamic()...) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSuiteMatchesPaperFigure1(t *testing.T) {
	want := []string{
		"BT.B", "CG.D", "DC.A", "EP.C", "FT.C", "IS.D", "LU.B", "MG.D",
		"SP.B", "UA.B", "UA.C", "WC", "WR", "Kmeans", "MatrixMultiply",
		"pca", "wrmem", "SSCA.20", "SPECjbb",
	}
	got := Suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestReducedAndUnaffectedPartitionSuite(t *testing.T) {
	seen := map[string]int{}
	for _, s := range ReducedSet() {
		seen[s.Name]++
	}
	for _, s := range UnaffectedSet() {
		seen[s.Name]++
	}
	if len(seen) != len(Suite()) {
		t.Fatalf("partition covers %d benchmarks, want %d", len(seen), len(Suite()))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("%s appears %d times across the partition", name, n)
		}
	}
	// The reduced set is exactly the paper's §3 selection.
	wantReduced := map[string]bool{
		"CG.D": true, "LU.B": true, "UA.B": true, "UA.C": true,
		"MatrixMultiply": true, "wrmem": true, "SSCA.20": true, "SPECjbb": true,
	}
	for _, s := range ReducedSet() {
		if !wantReduced[s.Name] {
			t.Errorf("%s should not be in the reduced set", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("CG.D")
	if err != nil || s.Name != "CG.D" {
		t.Fatalf("ByName(CG.D) = %v, %v", s.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
	if len(Names()) != 22 {
		t.Fatalf("Names() has %d entries, want 22", len(Names()))
	}
	for _, s := range append(append(Suite(), Streamcluster()), Dynamic()...) {
		got, err := ByName(s.Name)
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("ByName(%s) = %v, %v", s.Name, got.Name, err)
		}
		if err := CheckName(s.Name); err != nil {
			t.Fatalf("CheckName(%s) = %v", s.Name, err)
		}
	}
	if _, err := ByName("nope"); !errors.Is(err, ErrUnknownWorkload) || err.Error() != `workloads: unknown benchmark "nope"` {
		t.Fatalf("ByName(nope) error = %v", err)
	}
	if err := CheckName("nope"); !errors.Is(err, ErrUnknownWorkload) || err.Error() != `workloads: unknown benchmark "nope"` {
		t.Fatalf("CheckName(nope) error = %v", err)
	}
}

// TestByNameReturnsFreshSpec: engines mutate a Spec's slices, so a
// mutation must not reach the next ByName call.
func TestByNameReturnsFreshSpec(t *testing.T) {
	a, _ := ByName("WC.churn")
	a.Regions[0].Bytes = 1
	a.Events[0].AtWorkFrac = 0.99
	b, _ := ByName("WC.churn")
	if !reflect.DeepEqual(b, WCChurn()) {
		t.Fatal("a mutated ByName spec leaked into the next call")
	}
}

func TestNextAllocCoversAllPagesExactlyOnce(t *testing.T) {
	spec := Spec{
		Name: "tiny",
		Regions: []RegionSpec{
			{Name: "a", Bytes: 8 * mib, Weight: 0.5, Loc: cache.RandomUniform,
				Sharing: SharedAll, Init: InitStriped},
			{Name: "b", Bytes: 4 * mib, Weight: 0.5, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, Init: InitOwner},
		},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	touched := map[string]map[uint64]int{"a": {}, "b": {}}
	for th := 0; th < in.Threads; th++ {
		for {
			a, ok := in.NextAlloc(th)
			if !ok {
				break
			}
			touched[a.Region.Spec.Name][a.Off]++
			if a.Weight <= 0 {
				t.Fatal("alloc touch weight must be positive")
			}
		}
		if !in.AllocDone(th) {
			t.Fatalf("thread %d not done after exhaustion", th)
		}
	}
	for name, m := range touched {
		var want int
		switch name {
		case "a":
			want = 8 * mib / 4096
		case "b":
			want = 4 * mib / 4096
		}
		if len(m) != want {
			t.Fatalf("region %s: %d distinct pages touched, want %d", name, len(m), want)
		}
		for off, n := range m {
			if n != 1 {
				t.Fatalf("region %s offset %d touched %d times", name, off, n)
			}
			if off%4096 != 0 {
				t.Fatalf("region %s offset %d not page aligned", name, off)
			}
		}
	}
}

func TestMasterInitAllToThreadZero(t *testing.T) {
	spec := Spec{
		Name: "m",
		Regions: []RegionSpec{{Name: "r", Bytes: 4 * mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: SharedAll, Init: InitMaster}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	n := 0
	for {
		_, ok := in.NextAlloc(0)
		if !ok {
			break
		}
		n++
	}
	if n != 4*mib/4096 {
		t.Fatalf("master touched %d pages, want all %d", n, 4*mib/4096)
	}
	for th := 1; th < in.Threads; th++ {
		if _, ok := in.NextAlloc(th); ok {
			t.Fatalf("thread %d has alloc work under InitMaster", th)
		}
	}
}

func TestStripedInitBalancedAcrossThreads(t *testing.T) {
	spec := Spec{
		Name: "s",
		Regions: []RegionSpec{{Name: "r", Bytes: 64 * mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: SharedAll, Init: InitStriped}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	counts := make([]int, in.Threads)
	for th := 0; th < in.Threads; th++ {
		for {
			_, ok := in.NextAlloc(th)
			if !ok {
				break
			}
			counts[th]++
		}
	}
	total := 0
	mean := 64 * mib / 4096 / in.Threads
	for th, c := range counts {
		total += c
		if c < mean/2 || c > mean*2 {
			t.Fatalf("thread %d touched %d pages, mean %d: striping unbalanced", th, c, mean)
		}
	}
	if total != 64*mib/4096 {
		t.Fatalf("striped init covered %d pages", total)
	}
}

func TestSteadyPrivateBlockedStaysInOwnBlocks(t *testing.T) {
	spec := Spec{
		Name: "p",
		Regions: []RegionSpec{{Name: "r", Bytes: 48 * mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: PrivateBlocked, BlockBytes: 1 * mib,
			Init: InitOwner}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	br := in.Regions[0]
	rng := stats.NewRng(7)
	for i := 0; i < 5000; i++ {
		a := in.NextSteady(3, rng)
		block := a.Off / br.blockBytes
		if br.owner(block, in.Threads) != 3 {
			t.Fatalf("thread 3 accessed block %d owned by %d", block, br.owner(block, in.Threads))
		}
	}
}

func TestSteadyHaloTargetsOtherThreads(t *testing.T) {
	spec := Spec{
		Name: "h",
		Regions: []RegionSpec{{Name: "r", Bytes: 48 * mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: PrivateBlocked, BlockBytes: 1 * mib,
			HaloFrac: 0.5, HaloBytes: 16 * kib, Init: InitOwner}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	br := in.Regions[0]
	rng := stats.NewRng(7)
	foreign := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a := in.NextSteady(3, rng)
		block := a.Off / br.blockBytes
		if br.owner(block, in.Threads) != 3 {
			foreign++
			// Halo accesses must land within HaloBytes of a block edge.
			within := a.Off % br.blockBytes
			if within >= 16*kib && within < br.blockBytes-16*kib-64 {
				t.Fatalf("foreign access at %d not in halo", within)
			}
		}
	}
	if foreign < n/2-700 || foreign > n/2+700 {
		t.Fatalf("foreign accesses = %d/%d, want ≈50%%", foreign, n)
	}
}

func TestSteadyZipfHotPrefix(t *testing.T) {
	spec := Spec{
		Name: "z",
		Regions: []RegionSpec{{Name: "r", Bytes: 100 * mib, Weight: 1,
			Loc: cache.ZipfHot, HotFrac: 0.01, Sharing: SharedAll, Init: InitStriped}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	rng := stats.NewRng(9)
	hotBytes := uint64(float64(100*mib) * 0.01)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.NextSteady(0, rng).Off < hotBytes {
			hot++
		}
	}
	// 90% targeted + ~1% of the uniform tail also lands in the prefix.
	if hot < n*85/100 || hot > n*95/100 {
		t.Fatalf("hot-prefix accesses = %d/%d, want ≈90%%", hot, n)
	}
}

func TestScatterBlocksChangesOwnership(t *testing.T) {
	mk := func(scatter bool) *BuiltRegion {
		spec := Spec{
			Name: "sc",
			Regions: []RegionSpec{{Name: "r", Bytes: 48 * mib, Weight: 1,
				Loc: cache.RandomUniform, Sharing: PrivateBlocked, BlockBytes: 1 * mib,
				ScatterBlocks: scatter, Init: InitOwner}},
			WorkPerThread: 1000, MLPOverlap: 0.5,
		}
		return build(t, spec).Regions[0]
	}
	rr := mk(false)
	sc := mk(true)
	// Round-robin: adjacent blocks belong to adjacent threads.
	if rr.owner(0, 24) != 0 || rr.owner(1, 24) != 1 {
		t.Fatal("round-robin ownership broken")
	}
	// Scatter: ownership is not the identity pattern (some block differs).
	diff := 0
	for b := uint64(0); b < 48; b++ {
		if sc.owner(b, 24) != int(b%24) {
			diff++
		}
	}
	if diff < 10 {
		t.Fatalf("scatter ownership too close to round-robin (%d/48 differ)", diff)
	}
	// Every thread still owns at least one block.
	for th := 0; th < 24; th++ {
		if len(sc.ownBlocks[th]) == 0 {
			t.Fatalf("scatter left thread %d with no blocks", th)
		}
	}
}

func TestTLBSegmentsFollowMappingGranularity(t *testing.T) {
	in := build(t, Spec{
		Name: "t",
		Regions: []RegionSpec{{Name: "r", Bytes: 64 * mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: SharedAll, Init: InitStriped}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	})
	small := in.TLBSegments([]PageCounts{{N4K: 16384}})
	large := in.TLBSegments([]PageCounts{{N2M: 32}})
	if len(small) != 1 || len(large) != 1 {
		t.Fatalf("segments: %d and %d", len(small), len(large))
	}
	if small[0].Pages <= large[0].Pages {
		t.Fatal("4K mapping must yield more pages than 2M")
	}
	if small[0].Size != mem.Size4K || large[0].Size != mem.Size2M {
		t.Fatal("segment sizes wrong")
	}
}

func TestCacheProfileDRAMFloor(t *testing.T) {
	p := ApplyDRAMFloor(cache.LevelProbs{L1: 0.6, L2: 0.3, L3: 0.05}, 0.5)
	if p.DRAM() < 0.499 {
		t.Fatalf("floor not applied: DRAM = %v", p.DRAM())
	}
	// Without need, profile unchanged.
	q := ApplyDRAMFloor(cache.LevelProbs{L1: 0.1}, 0.5)
	if q.L1 != 0.1 {
		t.Fatal("floor applied when already above")
	}
}

func TestDeterministicSteadyStream(t *testing.T) {
	gen := func() []SteadyAccess {
		in := build(t, CG())
		rng := stats.NewRng(42)
		out := make([]SteadyAccess, 200)
		for i := range out {
			out[i] = in.NextSteady(5, rng)
		}
		return out
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("steady stream diverged at %d", i)
		}
	}
}

func TestTLBSegmentsHotFirstAttribution(t *testing.T) {
	// A ZipfHot region with a mixed 4K/2M census: the 4K-mapped bytes
	// must be attributed to the hot subset first, so a policy that split
	// the hot pages sees the hot set at 4K granularity.
	in := build(t, Spec{
		Name: "hotattr",
		Regions: []RegionSpec{{Name: "r", Bytes: 64 * mib, Weight: 1,
			Loc: cache.ZipfHot, HotFrac: 0.05, Sharing: SharedAll, Init: InitStriped}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	})
	// Census: ≈3.2 MB (the hot set) mapped 4K, the rest 2M.
	counts := []PageCounts{{N4K: 800, N2M: 30}}
	segs := in.TLBSegments(counts)
	// The hot access weight (90%) must be attributed to the 4K-mapped
	// bytes, because policies split the hot pages first.
	var w4k, sum float64
	var seg4k tlb.Segment
	for _, s := range segs {
		sum += s.Weight
		if s.Size == mem.Size4K && s.Weight > w4k {
			w4k = s.Weight
			seg4k = s
		}
	}
	if w4k < 0.85 {
		t.Fatalf("4K segments carry weight %v, want ≈0.9 (hot-first attribution)", w4k)
	}
	if seg4k.Pages > 810 {
		t.Fatalf("hot 4K segment spans %v pages, want ≤ census 800", seg4k.Pages)
	}
	// Total weight must be preserved.
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("segment weights sum to %v", sum)
	}
}

func TestApplyDRAMCap(t *testing.T) {
	p := cache.LevelProbs{L1: 0.1, L2: 0.1, L3: 0.1} // DRAM = 0.7
	capped := ApplyDRAMCap(p, 0.2)
	if capped.DRAM() > 0.2+1e-9 {
		t.Fatalf("cap not applied: DRAM = %v", capped.DRAM())
	}
	if capped.L3 < 0.59 {
		t.Fatalf("excess should go to L3, got %v", capped.L3)
	}
	// No-ops.
	if got := ApplyDRAMCap(p, 0); got != p {
		t.Fatal("cap 0 should be a no-op")
	}
	if got := ApplyDRAMCap(p, 0.9); got != p {
		t.Fatal("loose cap should be a no-op")
	}
}

func TestValidateRejectsCapBelowFloor(t *testing.T) {
	s := Spec{
		Name: "bad",
		Regions: []RegionSpec{{Name: "r", Bytes: mib, Weight: 1,
			Loc: cache.RandomUniform, Sharing: SharedAll,
			DRAMFloor: 0.5, DRAMCap: 0.2}},
		WorkPerThread: 1, MLPOverlap: 0.5,
	}
	if err := s.Validate(); err == nil {
		t.Fatal("cap below floor accepted")
	}
}

func TestHotAccessFracControlsSteadyDraws(t *testing.T) {
	spec := Spec{
		Name: "ha",
		Regions: []RegionSpec{{Name: "r", Bytes: 100 * mib, Weight: 1,
			Loc: cache.ZipfHot, HotFrac: 0.01, HotAccessFrac: 0.99,
			Sharing: SharedAll, Init: InitStriped}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	rng := stats.NewRng(3)
	hotBytes := uint64(float64(100*mib) * 0.01)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.NextSteady(0, rng).Off < hotBytes {
			hot++
		}
	}
	if hot < n*97/100 {
		t.Fatalf("hot accesses = %d/%d, want ≈99%%", hot, n)
	}
}

func TestPhasesValidate(t *testing.T) {
	base := Spec{
		Name: "ph",
		Regions: []RegionSpec{
			{Name: "a", Bytes: mib, Weight: 0.5, Loc: cache.RandomUniform, Sharing: SharedAll},
			{Name: "b", Bytes: mib, Weight: 0.5, Loc: cache.RandomUniform, Sharing: SharedAll},
		},
		WorkPerThread: 1, MLPOverlap: 0.5,
	}
	ok := base
	ok.Phases = []PhaseSpec{{AtWorkFrac: 0.5, Weights: []float64{0.9, 0.1}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Phases = []PhaseSpec{{AtWorkFrac: 0.5, Weights: []float64{0.9}}}
	if bad.Validate() == nil {
		t.Fatal("wrong weight arity accepted")
	}
	bad2 := base
	bad2.Phases = []PhaseSpec{
		{AtWorkFrac: 0.6, Weights: []float64{0.5, 0.5}},
		{AtWorkFrac: 0.4, Weights: []float64{0.5, 0.5}},
	}
	if bad2.Validate() == nil {
		t.Fatal("non-ascending thresholds accepted")
	}
}

func TestPhaseWeightsShiftDraws(t *testing.T) {
	spec := Spec{
		Name: "shift",
		Regions: []RegionSpec{
			{Name: "a", Bytes: 8 * mib, Weight: 0.9, Loc: cache.RandomUniform, Sharing: SharedAll, Init: InitStriped},
			{Name: "b", Bytes: 8 * mib, Weight: 0.1, Loc: cache.RandomUniform, Sharing: SharedAll, Init: InitStriped},
		},
		Phases:        []PhaseSpec{{AtWorkFrac: 0.5, Weights: []float64{0.1, 0.9}}},
		WorkPerThread: 1000, MLPOverlap: 0.5,
	}
	in := build(t, spec)
	if in.NumPhases() != 2 {
		t.Fatalf("phases = %d", in.NumPhases())
	}
	if in.PhaseAt(0.2) != 0 || in.PhaseAt(0.5) != 1 || in.PhaseAt(0.9) != 1 {
		t.Fatal("PhaseAt wrong")
	}
	if in.NextPhaseBoundary(0) != 0.5 || in.NextPhaseBoundary(1) != 0 {
		t.Fatal("NextPhaseBoundary wrong")
	}
	rng := stats.NewRng(1)
	count := func(phase int) int {
		a := 0
		for i := 0; i < 10000; i++ {
			if in.NextSteadyPhase(0, rng, phase).RegionIdx == 0 {
				a++
			}
		}
		return a
	}
	p0, p1 := count(0), count(1)
	if p0 < 8700 || p0 > 9300 {
		t.Fatalf("phase 0 draws to region a = %d/10000, want ≈9000", p0)
	}
	if p1 < 700 || p1 > 1300 {
		t.Fatalf("phase 1 draws to region a = %d/10000, want ≈1000", p1)
	}
}

func TestNoPhasesBehaviorUnchanged(t *testing.T) {
	// NextSteady must be identical to NextSteadyPhase(0) and consume the
	// same RNG stream (the suite's outputs depend on this).
	in1 := build(t, CG())
	in2 := build(t, CG())
	r1, r2 := stats.NewRng(5), stats.NewRng(5)
	for i := 0; i < 500; i++ {
		if in1.NextSteady(3, r1) != in2.NextSteadyPhase(3, r2, 0) {
			t.Fatal("phase-0 draws diverge from NextSteady")
		}
	}
}
