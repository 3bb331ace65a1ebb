package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/tlb"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// eventTinySpec is tinySpec with a full churn timeline: the shared
// buffer shrinks, a fresh scratch region is allocated into the hole,
// and the buffer is finally freed outright.
func eventTinySpec() workloads.Spec {
	spec := tinySpec()
	spec.Name = "tiny.events"
	spec.Events = []workloads.EventSpec{
		{AtWorkFrac: 0.30, ShrinkRegion: "shared", ShrinkToFrac: 0.25,
			Weights: []float64{0.7, 0.3}},
		{AtWorkFrac: 0.50,
			Alloc: &workloads.RegionSpec{Name: "scratch", Bytes: 24 << 20, Weight: 0.4,
				Loc: cache.RandomUniform, Sharing: workloads.SharedAll},
			Weights: []float64{0.5, 0.1, 0.4}},
		{AtWorkFrac: 0.70, FreeRegion: "shared",
			Weights: []float64{0.55, 0, 0.45}},
	}
	return spec
}

// TestEventRunCompletes drives the full engine through a churn timeline
// in both pricing modes: the run must finish, drain every event, grow
// the region table, fault the event-allocated region in lazily, and
// leave the freed region unmapped.
func TestEventRunCompletes(t *testing.T) {
	for _, mode := range []Mode{ModeSampled, ModeAnalytic} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			eng, err := New(topo.MachineA(), eventTinySpec(), &thpOn{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := eng.Run()
			if res.TimedOut {
				t.Fatal("event run timed out")
			}
			wl := eng.Workload()
			if b := wl.NextEventBoundary(); b != 0 {
				t.Fatalf("events not drained: next boundary %v", b)
			}
			if len(wl.Regions) != 3 {
				t.Fatalf("region table has %d entries after alloc event, want 3", len(wl.Regions))
			}
			if wl.Regions[2].VM.MappedBytes() == 0 {
				t.Fatal("event-allocated region never faulted in")
			}
			if wl.Regions[1].VM.MappedBytes() != 0 {
				t.Fatal("freed region still mapped after run")
			}
		})
	}
}

// TestEventRunDeterministic pins that a churn timeline stays a pure
// function of the seed in both modes.
func TestEventRunDeterministic(t *testing.T) {
	for _, mode := range []Mode{ModeSampled, ModeAnalytic} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func() Result {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.Seed = 5
				eng, err := New(topo.MachineA(), eventTinySpec(), linux4K{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return eng.Run()
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("event runs with equal seeds differ:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// primeEventSteady primes a steady epoch like primeSteady, then drains
// the whole event timeline and reruns the snapshot phase, so that the
// measured epochs below are event-free — the zero-alloc contract covers
// steady pricing, not the (allocating, once-per-event) mutation path.
func primeEventSteady(tb testing.TB, e *Engine) (tlb.Assessment, float64) {
	tb.Helper()
	_, epochCycles := primeSteady(tb, e)
	// primeSteady's events phase may already have fired the first
	// boundaries (the barrier epoch runs steady work); drain the rest.
	e.wl.ApplyReadyEvents(1.0)
	if b := e.wl.NextEventBoundary(); b != 0 {
		tb.Fatalf("event at %v still pending after the drain", b)
	}
	e.growRegionState()
	return e.snapshot(true), epochCycles
}

// TestEventSteadyEpochZeroAlloc extends the zero-allocation invariant
// to post-event epochs: once the region table has grown and scratch is
// warm, pricing an epoch of an event workload allocates nothing, in
// either mode.
func TestEventSteadyEpochZeroAlloc(t *testing.T) {
	for _, mode := range []Mode{ModeSampled, ModeAnalytic} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = mode
			eng, err := New(topo.MachineA(), eventTinySpec(), &thpOn{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assess, epochCycles := primeEventSteady(t, eng)
			price := priceOneEpoch
			if mode == ModeAnalytic {
				price = priceOneEpochAnalytic
			}
			price(eng, assess, epochCycles) // warm scratch capacity
			allocs := testing.AllocsPerRun(10, func() {
				price(eng, assess, epochCycles)
			})
			if allocs != 0 {
				t.Fatalf("post-event %v pricing allocates %.1f times per epoch, want 0", mode, allocs)
			}
		})
	}
}
