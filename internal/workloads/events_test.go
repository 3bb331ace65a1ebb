package workloads

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vm"
)

// eventSpec builds a small two-region workload with the given timeline.
func eventSpec(events []EventSpec) Spec {
	return Spec{
		Name: "evt",
		Regions: []RegionSpec{
			{Name: "a", Bytes: 16 * mib, Weight: 0.6, Loc: cache.RandomUniform,
				Sharing: SharedAll, Init: InitStriped},
			{Name: "b", Bytes: 8 * mib, Weight: 0.4, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, Init: InitOwner},
		},
		Events:        events,
		WorkPerThread: 1e6, MLPOverlap: 0.5,
	}
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name    string
		regions []string // renames the static regions when set
		events  []EventSpec
		phases  []PhaseSpec
		errSub  string // "" = must validate
	}{
		{name: "free ok", events: []EventSpec{
			{AtWorkFrac: 0.5, FreeRegion: "a", Weights: []float64{0, 1}}}},
		{name: "double free", events: []EventSpec{
			{AtWorkFrac: 0.3, FreeRegion: "a", Weights: []float64{0, 1}},
			{AtWorkFrac: 0.6, FreeRegion: "a", Weights: []float64{0, 1}},
		}, errSub: "twice"},
		{name: "freed region keeps weight", events: []EventSpec{
			{AtWorkFrac: 0.3, FreeRegion: "a", Weights: []float64{0.5, 0.5}}},
			errSub: "freed region"},
		{name: "unknown region", events: []EventSpec{
			{AtWorkFrac: 0.3, FreeRegion: "zzz", Weights: []float64{0.5, 0.5}}},
			errSub: "unknown"},
		{name: "non-ascending", events: []EventSpec{
			{AtWorkFrac: 0.6, Shift: &ShiftSpec{Region: "a", HotFrac: 0.1}, Weights: []float64{0.6, 0.4}},
			{AtWorkFrac: 0.4, FreeRegion: "a", Weights: []float64{0, 1}},
		}, errSub: "ascending"},
		{name: "two actions", events: []EventSpec{
			{AtWorkFrac: 0.5, FreeRegion: "a", Shift: &ShiftSpec{Region: "b"},
				Weights: []float64{0, 1}}}, errSub: "actions"},
		{name: "no action", events: []EventSpec{
			{AtWorkFrac: 0.5, Weights: []float64{0.6, 0.4}}}, errSub: "actions"},
		{name: "alloc then weights cover it", events: []EventSpec{
			{AtWorkFrac: 0.5, Alloc: &RegionSpec{Name: "c", Bytes: mib, Loc: cache.RandomUniform, Sharing: SharedAll},
				Weights: []float64{0.3, 0.3, 0.4}}}},
		{name: "alloc weights too short", events: []EventSpec{
			{AtWorkFrac: 0.5, Alloc: &RegionSpec{Name: "c", Bytes: mib, Loc: cache.RandomUniform, Sharing: SharedAll},
				Weights: []float64{0.6, 0.4}}}, errSub: "weights"},
		{name: "alloc duplicate name", events: []EventSpec{
			{AtWorkFrac: 0.5, Alloc: &RegionSpec{Name: "a", Bytes: mib, Loc: cache.RandomUniform, Sharing: SharedAll},
				Weights: []float64{0.3, 0.3, 0.4}}}, errSub: "duplicate"},
		{name: "shrink frac out of range", events: []EventSpec{
			{AtWorkFrac: 0.5, ShrinkRegion: "a", ShrinkToFrac: 1.5,
				Weights: []float64{0.6, 0.4}}}, errSub: "fraction"},
		{name: "use after free", events: []EventSpec{
			{AtWorkFrac: 0.3, FreeRegion: "a", Weights: []float64{0, 1}},
			{AtWorkFrac: 0.6, Shift: &ShiftSpec{Region: "a"}, Weights: []float64{0, 1}},
		}, errSub: "freed"},
		{name: "duplicate static region", regions: []string{"a", "a"}, events: []EventSpec{
			{AtWorkFrac: 0.5, FreeRegion: "a", Weights: []float64{0, 1}}}, errSub: "duplicate"},
		{name: "empty static region name", regions: []string{"a", ""}, events: []EventSpec{
			{AtWorkFrac: 0.5, Shift: &ShiftSpec{Region: ""}, Weights: []float64{0.6, 0.4}}}, errSub: "missing"},
		{name: "events exclude phases",
			events: []EventSpec{{AtWorkFrac: 0.5, FreeRegion: "a", Weights: []float64{0, 1}}},
			phases: []PhaseSpec{{AtWorkFrac: 0.3, Weights: []float64{0.5, 0.5}}},
			errSub: "mixes"},
	}
	for _, c := range cases {
		s := eventSpec(c.events)
		s.Phases = c.phases
		for i, name := range c.regions {
			s.Regions[i].Name = name
		}
		err := s.Validate()
		if c.errSub == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.errSub)
		}
	}
}

// drainEvents applies the full timeline as if every thread had finished.
func drainEvents(in *Instance) int { return in.ApplyReadyEvents(1.0) }

func TestEventHeapDrainsInBoundaryOrder(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.2, Shift: &ShiftSpec{Region: "a", HotFrac: 0.5, HotAccessFrac: 0.5}, Weights: []float64{0.6, 0.4}},
		{AtWorkFrac: 0.4, ShrinkRegion: "a", ShrinkToFrac: 0.5, Weights: []float64{0.5, 0.5}},
		{AtWorkFrac: 0.6, FreeRegion: "a", Weights: []float64{0, 1}},
	})
	in := build(t, s)
	if !in.HasEvents() {
		t.Fatal("HasEvents false on an event workload")
	}
	if b := in.NextEventBoundary(); b != 0.2 {
		t.Fatalf("first boundary %v, want 0.2", b)
	}
	// Below the first boundary nothing fires.
	if n := in.ApplyReadyEvents(0.19); n != 0 {
		t.Fatalf("applied %d events below the boundary", n)
	}
	if n := in.ApplyReadyEvents(0.2); n != 1 {
		t.Fatalf("applied %d events at the first boundary, want 1", n)
	}
	if b := in.NextEventBoundary(); b != 0.4 {
		t.Fatalf("next boundary %v, want 0.4", b)
	}
	// A clock far past both remaining boundaries drains them in order.
	if n := in.ApplyReadyEvents(1.0); n != 2 {
		t.Fatalf("drained %d events, want 2", n)
	}
	if b := in.NextEventBoundary(); b != 0 {
		t.Fatalf("boundary after drain %v, want 0", b)
	}
	if got := in.NumPhases(); got != 4 {
		t.Fatalf("NumPhases after drain = %d, want 4", got)
	}
}

func TestFreeEventUnmapsAndZeroesWeight(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.5, FreeRegion: "a", Weights: []float64{0, 1}},
	})
	in := build(t, s)
	a := in.Regions[0]
	// Fault a few pages in so the free has something to release.
	for off := uint64(0); off < 64*uint64(mem.Size4K); off += uint64(mem.Size4K) {
		a.VM.Access(0, 0, off)
	}
	if a.VM.MappedBytes() == 0 {
		t.Fatal("test setup: nothing mapped")
	}
	drainEvents(in)
	if !a.freed {
		t.Fatal("region not marked freed")
	}
	if got := a.VM.MappedBytes(); got != 0 {
		t.Fatalf("freed region still has %d mapped bytes", got)
	}
	if a.Spec.Weight != 0 {
		t.Fatalf("freed region weight %v", a.Spec.Weight)
	}
	// The post-event phase never draws from the freed region.
	if w := in.RegionWeight(in.NumPhases()-1, 0); w != 0 {
		t.Fatalf("freed region has weight %v in final phase", w)
	}
}

func TestShrinkEventTruncatesRegion(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.5, ShrinkRegion: "a", ShrinkToFrac: 0.25, Weights: []float64{0.6, 0.4}},
	})
	in := build(t, s)
	a := in.Regions[0]
	orig := a.Spec.Bytes
	// Map the whole region at 4 KB.
	for off := uint64(0); off < orig; off += uint64(mem.Size4K) {
		a.VM.Access(0, 0, off)
	}
	before := a.VM.MappedBytes()
	drainEvents(in)
	want := uint64(float64(orig)*0.25) &^ 63
	if a.Spec.Bytes != want {
		t.Fatalf("shrunk Bytes = %d, want %d", a.Spec.Bytes, want)
	}
	after := a.VM.MappedBytes()
	if after >= before {
		t.Fatalf("shrink did not unmap: %d -> %d", before, after)
	}
	// Post-shrink draws stay inside the surviving prefix.
	rng := stats.NewRng(7)
	for i := 0; i < 2000; i++ {
		off := in.SteadyOffset(0, 0, rng)
		if off >= a.Spec.Bytes {
			t.Fatalf("draw %d at offset %d past shrunk end %d", i, off, a.Spec.Bytes)
		}
	}
}

func TestAllocEventAppendsLazyRegion(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.5,
			Alloc: &RegionSpec{Name: "c", Bytes: 4 * mib, Weight: 0.5,
				Loc: cache.RandomUniform, Sharing: SharedAll},
			Weights: []float64{0.3, 0.2, 0.5}},
	})
	in := build(t, s)
	// Finish the allocation phase first, as the engine's barrier does.
	for th := 0; th < in.Threads; th++ {
		for {
			if _, ok := in.NextAlloc(th); !ok {
				break
			}
		}
	}
	if !in.AllocAllDone() {
		t.Fatal("allocation phase should be complete")
	}
	drainEvents(in)
	if len(in.Regions) != 3 {
		t.Fatalf("region count %d after alloc event, want 3", len(in.Regions))
	}
	c := in.Regions[2]
	if !c.Spec.SkipInit {
		t.Fatal("event-allocated region must be lazy (SkipInit)")
	}
	if c.VM.MappedBytes() != 0 {
		t.Fatal("event-allocated region should start unmapped")
	}
	// The allocation barrier must not reopen: lazy regions have no init
	// pass.
	if !in.AllocAllDone() {
		t.Fatal("alloc event reopened the allocation barrier")
	}
	// New region is drawable in the final phase and offsets are in range.
	if w := in.RegionWeight(in.NumPhases()-1, 2); w != 0.5 {
		t.Fatalf("new region weight %v, want 0.5", w)
	}
	rng := stats.NewRng(3)
	for i := 0; i < 500; i++ {
		off := in.SteadyOffset(0, 2, rng)
		if off >= c.Spec.Bytes {
			t.Fatalf("draw at %d outside new region (%d bytes)", off, c.Spec.Bytes)
		}
	}
	// Pre-event phases give the new region zero weight.
	if w := in.RegionWeight(0, 2); w != 0 {
		t.Fatalf("new region has weight %v in phase 0", w)
	}
}

func TestShiftEventBumpsGeneration(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.5,
			Shift:   &ShiftSpec{Region: "a", HotFrac: 0.02, HotAccessFrac: 0.9},
			Weights: []float64{0.6, 0.4}},
	})
	in := build(t, s)
	a := in.Regions[0]
	gen := a.VM.Gen()
	drainEvents(in)
	if a.VM.Gen() == gen {
		t.Fatal("shift event did not bump the mapping generation (stale analytic census)")
	}
	if a.Spec.HotFrac != 0.02 || a.Spec.HotAccessFrac != 0.9 {
		t.Fatalf("shift not applied: HotFrac=%v HotAccessFrac=%v", a.Spec.HotFrac, a.Spec.HotAccessFrac)
	}
}

// TestFreeEventReleasesPhysicalMemory checks the end-to-end ledger: a
// freed region's frames return to the buddy allocator.
func TestFreeEventReleasesPhysicalMemory(t *testing.T) {
	s := eventSpec([]EventSpec{
		{AtWorkFrac: 0.5, FreeRegion: "a", Weights: []float64{0, 1}},
	})
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	in, err := Build(s, space, m)
	if err != nil {
		t.Fatal(err)
	}
	a := in.Regions[0]
	for off := uint64(0); off < a.Spec.Bytes; off += uint64(mem.Size4K) {
		a.VM.Access(0, 0, off)
	}
	var allocatedBefore uint64
	for n := 0; n < m.Nodes; n++ {
		allocatedBefore += phys.Allocated(topo.NodeID(n))
	}
	drainEvents(in)
	var allocatedAfter uint64
	for n := 0; n < m.Nodes; n++ {
		allocatedAfter += phys.Allocated(topo.NodeID(n))
	}
	if want := allocatedBefore - a.Spec.Bytes; allocatedAfter != want {
		t.Fatalf("allocated bytes after free = %d, want %d", allocatedAfter, want)
	}
}
