// Package workloads defines the benchmark suite of the paper — the NAS
// Parallel Benchmarks, the Metis MapReduce benchmarks, SSCA v2.2, SPECjbb
// and (for §4.4) PARSEC streamcluster — as synthetic kernels that
// reproduce each application's memory-access *structure*: region sizes,
// thread-to-data ownership granularity, sharing and hot subsets,
// allocation phases, and cache/TLB behaviour. These structural properties
// are what produce the paper's phenomena (hot pages, page-level false
// sharing, allocation-time lock contention, TLB pressure); the arithmetic
// the real programs do between memory accesses is abstracted into a
// per-access cycle cost.
package workloads

import (
	"fmt"

	"repro/internal/cache"
)

// Sharing classifies how a region's bytes are divided among threads.
type Sharing int

const (
	// PrivateBlocked assigns ownership in contiguous blocks of BlockBytes,
	// block i belonging to thread i mod T. Threads access their own
	// blocks, except for a HaloFrac of accesses that target the halo
	// (first/last HaloBytes) of another thread's block — the paper's
	// page-level false-sharing mechanism when blocks are smaller than a
	// large page.
	PrivateBlocked Sharing = iota
	// SharedAll lets every thread access the whole region; the hot subset
	// (for ZipfHot locality) is the contiguous prefix of the region, so
	// large pages coalesce it onto few pages — the hot-page mechanism.
	SharedAll
)

// String names the sharing kind.
func (s Sharing) String() string {
	switch s {
	case PrivateBlocked:
		return "private-blocked"
	case SharedAll:
		return "shared"
	default:
		return fmt.Sprintf("Sharing(%d)", int(s))
	}
}

// InitPattern describes which thread first-touches each 4 KB page during
// the allocation phase; under first-touch placement this determines the
// initial page distribution, and its granularity interacts with the page
// size (a 2 MB allocation is claimed entirely by the first toucher).
type InitPattern int

const (
	// InitOwner: each thread touches its own blocks (PrivateBlocked).
	InitOwner InitPattern = iota
	// InitStriped: pages are touched by pseudo-randomly assigned threads,
	// modeling parallel initialization loops; fine-grained at 4 KB,
	// coarsened to chunk granularity by THP.
	InitStriped
	// InitMaster: thread 0 touches everything (serial setup phases);
	// first-touch then concentrates the region on thread 0's node.
	InitMaster
)

// String names the init pattern.
func (p InitPattern) String() string {
	switch p {
	case InitOwner:
		return "owner"
	case InitStriped:
		return "striped"
	case InitMaster:
		return "master"
	default:
		return fmt.Sprintf("InitPattern(%d)", int(p))
	}
}

// RegionSpec describes one allocation (array, heap arena, graph...) of a
// benchmark.
type RegionSpec struct {
	// Name labels the region in diagnostics.
	Name string
	// Bytes is the region size (scaled from the real benchmark, see
	// DESIGN.md).
	Bytes uint64
	// Weight is the fraction of steady-state accesses targeting this
	// region; weights should sum to 1 across a spec's regions.
	Weight float64
	// Loc is the cache-locality class of accesses within the accessed
	// footprint.
	Loc cache.Locality
	// HotFrac (ZipfHot only) is the fraction of the region that is hot.
	HotFrac float64
	// HotAccessFrac (ZipfHot only) is the fraction of accesses that land
	// in the hot subset; 0 defaults to 0.9.
	HotAccessFrac float64
	// ZipfS is the Zipf exponent for SharedAll element draws (0 =
	// uniform).
	ZipfS float64
	// DRAMFloor forces at least this DRAM-service probability,
	// modeling write-shared data whose coherence misses bypass caches
	// (reduction buffers, frontier arrays). 0 = purely capacity-driven.
	DRAMFloor float64
	// DRAMCap bounds the DRAM-service probability from above, modeling
	// write-allocated data that stays cache-warm (freshly allocated
	// MapReduce buffers); the excess is served by the L3. 0 = no cap.
	DRAMCap float64
	// Sharing selects the ownership structure.
	Sharing Sharing
	// BlockBytes is the PrivateBlocked ownership grain (0 = one block per
	// thread).
	BlockBytes uint64
	// ScatterBlocks assigns PrivateBlocked block ownership by hash
	// instead of round-robin, so adjacent blocks belong to unrelated
	// threads (unstructured meshes); this makes a 2 MB chunk's co-owners
	// land on different nodes.
	ScatterBlocks bool
	// HaloFrac is the fraction of PrivateBlocked accesses that go to
	// another thread's halo.
	HaloFrac float64
	// HaloBytes is the halo width at each block edge.
	HaloBytes uint64
	// Init selects the first-touch pattern.
	Init InitPattern
	// InitTouchWeight is the number of steady-equivalent accesses one
	// 4 KB init touch represents; small values make the allocation phase
	// page-fault-bound (the Metis behaviour).
	InitTouchWeight float64
	// SkipInit leaves the region to fault lazily during steady state.
	SkipInit bool
	// ChurnPer1K is the expected number of fresh 4 KB pages allocated
	// (and therefore page faults taken) per 1000 steady-state accesses to
	// this region when running on 4 KB pages — the Metis/MapReduce
	// allocation-churn behaviour that makes WC spend 37.6% of its time in
	// the page-fault handler (§2.2, Table 1).
	ChurnPer1K float64
	// ChurnTHPFrac is the fraction of churned allocations THP manages to
	// back with 2 MB pages when enabled (fragmentation and allocator
	// reuse keep it below 1).
	ChurnTHPFrac float64
	// FileBacked marks the region ineligible for THP (Linux only backs
	// anonymous memory, §2.1).
	FileBacked bool
}

// PhaseSpec shifts the steady-state access mix once a thread passes a
// progress threshold, modeling application phase changes — the behaviour
// §3.2 says Carrefour-LP's continuous monitoring "caters to".
type PhaseSpec struct {
	// AtWorkFrac is the fraction of WorkPerThread at which the phase
	// begins (0 < AtWorkFrac < 1, ascending across phases).
	AtWorkFrac float64
	// Weights replaces the per-region access weights, in region order.
	Weights []float64
}

// ShiftSpec redirects a region's internal access distribution without
// changing the overall region mix: the hot subset moves or re-shapes,
// invalidating placements a policy tuned to the old distribution.
type ShiftSpec struct {
	// Region names the SharedAll region whose distribution shifts.
	Region string
	// HotFrac, HotAccessFrac and ZipfS replace the region's fields.
	HotFrac       float64
	HotAccessFrac float64
	ZipfS         float64
}

// EventSpec is one timed mutation of the running workload — the dynamic
// behaviour static specs cannot express: regions appearing, disappearing,
// shrinking, or re-shaping mid-run. Events fire in work-progress order
// once every thread has completed AtWorkFrac of its work (threads are
// clamped at the boundary, so no thread races past an unapplied event).
// Exactly one of Alloc, FreeRegion, ShrinkRegion, Shift must be set.
type EventSpec struct {
	// AtWorkFrac is the work fraction at which the event fires
	// (0 < AtWorkFrac < 1, strictly ascending across events).
	AtWorkFrac float64
	// Alloc appends a new region to the workload. The region faults in
	// lazily from steady-state accesses (SkipInit is implied).
	Alloc *RegionSpec
	// FreeRegion unmaps the named region entirely; its weight must be 0
	// in this event's Weights and every later event's.
	FreeRegion string
	// ShrinkRegion truncates the named SharedAll region to
	// ShrinkToFrac of its current size, unmapping the tail.
	ShrinkRegion string
	// ShrinkToFrac is the surviving fraction (0 < ShrinkToFrac < 1).
	ShrinkToFrac float64
	// Shift re-shapes the named region's access distribution.
	Shift *ShiftSpec
	// Weights is the full post-event per-region access weight vector, in
	// region order including any regions added by this and earlier
	// events. Required for every event.
	Weights []float64
}

// Spec is a complete benchmark description.
type Spec struct {
	// Name is the benchmark name as the paper reports it (e.g. "CG.D").
	Name string
	// Regions lists the benchmark's allocations.
	Regions []RegionSpec
	// Phases optionally re-weights the regions as threads progress;
	// region weights in Regions define phase 0.
	Phases []PhaseSpec
	// Events optionally mutate the workload itself as threads progress —
	// allocation, freeing, shrinking, or distribution shifts. Mutually
	// exclusive with Phases (events carry their own weight vectors).
	Events []EventSpec
	// WorkPerThread is the steady-state accesses each thread must
	// complete (after the allocation phase) for the run to finish.
	WorkPerThread float64
	// ExtraCyclesPerAccess is the non-memory computation between
	// accesses.
	ExtraCyclesPerAccess float64
	// MLPOverlap is the fraction of DRAM latency hidden by memory-level
	// parallelism (0 = fully exposed, 0.9 = mostly overlapped).
	MLPOverlap float64
}

// Validate checks internal consistency; specs are static data, so errors
// here are programming mistakes surfaced early by tests.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workloads: spec without name")
	}
	if len(s.Regions) == 0 {
		return fmt.Errorf("workloads: %s has no regions", s.Name)
	}
	var w float64
	for _, r := range s.Regions {
		if r.Bytes == 0 {
			return fmt.Errorf("workloads: %s region %s is empty", s.Name, r.Name)
		}
		if r.Weight < 0 || r.Weight > 1 {
			return fmt.Errorf("workloads: %s region %s weight %v", s.Name, r.Name, r.Weight)
		}
		if r.HaloFrac > 0 && r.Sharing != PrivateBlocked {
			return fmt.Errorf("workloads: %s region %s: halo requires PrivateBlocked", s.Name, r.Name)
		}
		if r.MLPInvalid() {
			return fmt.Errorf("workloads: %s region %s invalid", s.Name, r.Name)
		}
		w += r.Weight
	}
	if w < 0.99 || w > 1.01 {
		return fmt.Errorf("workloads: %s weights sum to %v", s.Name, w)
	}
	if s.WorkPerThread <= 0 {
		return fmt.Errorf("workloads: %s has no work", s.Name)
	}
	if s.MLPOverlap < 0 || s.MLPOverlap > 0.95 {
		return fmt.Errorf("workloads: %s MLP overlap %v out of range", s.Name, s.MLPOverlap)
	}
	prev := 0.0
	for i, p := range s.Phases {
		if p.AtWorkFrac <= prev || p.AtWorkFrac >= 1 {
			return fmt.Errorf("workloads: %s phase %d threshold %v not ascending in (0,1)", s.Name, i, p.AtWorkFrac)
		}
		prev = p.AtWorkFrac
		if len(p.Weights) != len(s.Regions) {
			return fmt.Errorf("workloads: %s phase %d has %d weights for %d regions", s.Name, i, len(p.Weights), len(s.Regions))
		}
		var w float64
		for _, v := range p.Weights {
			if v < 0 || v > 1 {
				return fmt.Errorf("workloads: %s phase %d weight %v", s.Name, i, v)
			}
			w += v
		}
		if w < 0.99 || w > 1.01 {
			return fmt.Errorf("workloads: %s phase %d weights sum to %v", s.Name, i, w)
		}
	}
	return s.validateEvents()
}

// validateEvents walks the event timeline against a simulated region
// table, catching the spec bugs that would otherwise surface as
// mid-run mem.ErrOverFree or index panics: missing or duplicate region
// names, double frees, unknown region names, non-monotone boundaries,
// and weight vectors that keep freed regions alive.
func (s Spec) validateEvents() error {
	if len(s.Events) == 0 {
		return nil
	}
	if len(s.Phases) > 0 {
		return fmt.Errorf("workloads: %s mixes Phases and Events; events carry their own weight vectors", s.Name)
	}
	// Simulated region table: names in order, with a freed marker.
	// Events resolve a name to its first match, so every name must be
	// present and unique.
	names := make([]string, 0, len(s.Regions))
	freed := make([]bool, len(s.Regions))
	find := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		return -1
	}
	for i, r := range s.Regions {
		if r.Name == "" || find(r.Name) >= 0 {
			return fmt.Errorf("workloads: %s region %d name %q missing or duplicate", s.Name, i, r.Name)
		}
		names = append(names, r.Name)
	}
	prev := 0.0
	for i, ev := range s.Events {
		if ev.AtWorkFrac <= prev || ev.AtWorkFrac >= 1 {
			return fmt.Errorf("workloads: %s event %d boundary %v not ascending in (0,1)", s.Name, i, ev.AtWorkFrac)
		}
		prev = ev.AtWorkFrac
		actions := 0
		if ev.Alloc != nil {
			actions++
			r := *ev.Alloc
			if r.Name == "" || find(r.Name) >= 0 {
				return fmt.Errorf("workloads: %s event %d alloc region name %q missing or duplicate", s.Name, i, r.Name)
			}
			if r.Bytes == 0 || r.MLPInvalid() {
				return fmt.Errorf("workloads: %s event %d alloc region %s invalid", s.Name, i, r.Name)
			}
			names = append(names, r.Name)
			freed = append(freed, false)
		}
		if ev.FreeRegion != "" {
			actions++
			ri := find(ev.FreeRegion)
			if ri < 0 {
				return fmt.Errorf("workloads: %s event %d frees unknown region %q", s.Name, i, ev.FreeRegion)
			}
			if freed[ri] {
				return fmt.Errorf("workloads: %s event %d frees region %q twice", s.Name, i, ev.FreeRegion)
			}
			freed[ri] = true
		}
		if ev.ShrinkRegion != "" {
			actions++
			ri := find(ev.ShrinkRegion)
			if ri < 0 {
				return fmt.Errorf("workloads: %s event %d shrinks unknown region %q", s.Name, i, ev.ShrinkRegion)
			}
			if freed[ri] {
				return fmt.Errorf("workloads: %s event %d shrinks freed region %q", s.Name, i, ev.ShrinkRegion)
			}
			if ev.ShrinkToFrac <= 0 || ev.ShrinkToFrac >= 1 {
				return fmt.Errorf("workloads: %s event %d shrink fraction %v not in (0,1)", s.Name, i, ev.ShrinkToFrac)
			}
		}
		if ev.Shift != nil {
			actions++
			ri := find(ev.Shift.Region)
			if ri < 0 {
				return fmt.Errorf("workloads: %s event %d shifts unknown region %q", s.Name, i, ev.Shift.Region)
			}
			if freed[ri] {
				return fmt.Errorf("workloads: %s event %d shifts freed region %q", s.Name, i, ev.Shift.Region)
			}
			sh := ev.Shift
			if sh.HotFrac < 0 || sh.HotFrac > 1 || sh.HotAccessFrac < 0 || sh.HotAccessFrac > 1 || sh.ZipfS < 0 {
				return fmt.Errorf("workloads: %s event %d shift parameters out of range", s.Name, i)
			}
		}
		if actions != 1 {
			return fmt.Errorf("workloads: %s event %d has %d actions, want exactly 1", s.Name, i, actions)
		}
		if len(ev.Weights) != len(names) {
			return fmt.Errorf("workloads: %s event %d has %d weights for %d regions", s.Name, i, len(ev.Weights), len(names))
		}
		var w float64
		for ri, v := range ev.Weights {
			if v < 0 || v > 1 {
				return fmt.Errorf("workloads: %s event %d weight %v", s.Name, i, v)
			}
			if freed[ri] && v != 0 {
				return fmt.Errorf("workloads: %s event %d gives freed region %q weight %v", s.Name, i, names[ri], v)
			}
			w += v
		}
		if w < 0.99 || w > 1.01 {
			return fmt.Errorf("workloads: %s event %d weights sum to %v", s.Name, i, w)
		}
	}
	return nil
}

// MLPInvalid reports nonsensical region parameters, including a
// locality, sharing or init pattern outside its enumeration.
func (r RegionSpec) MLPInvalid() bool {
	return r.Loc < cache.Stream || r.Loc > cache.Resident || r.Sharing < PrivateBlocked || r.Sharing > SharedAll ||
		r.Init < InitOwner || r.Init > InitMaster ||
		r.HotFrac < 0 || r.HotFrac > 1 || r.HotAccessFrac < 0 || r.HotAccessFrac > 1 || r.HaloFrac < 0 || r.HaloFrac > 1 ||
		r.DRAMFloor < 0 || r.DRAMFloor > 1 || r.ChurnPer1K < 0 ||
		r.ChurnTHPFrac < 0 || r.ChurnTHPFrac > 1 ||
		r.DRAMCap < 0 || r.DRAMCap > 1 ||
		(r.DRAMCap > 0 && r.DRAMCap < r.DRAMFloor)
}
