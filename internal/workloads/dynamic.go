package workloads

import "repro/internal/cache"

// This file defines the dynamic-workload suite: benchmarks whose memory
// behaviour *changes mid-run* through event timelines (Spec.Events).
// The static suite freezes each application's region set at build time,
// which quietly hands every huge-page policy pristine physical memory:
// 2 MB allocations never fail, khugepaged always finds contiguity, and a
// one-shot page-size decision is never invalidated. Real MapReduce and
// analytics runs free and reallocate gigabytes mid-run, and §2 of the
// paper measures Linux exactly in that regime. These workloads surface
// the two failure modes the static suite hides:
//
//   - WC.churn: an input arena is torn down mid-run, leaving scattered
//     4 KB holes (buddy fragmentation), and a fresh output arena is then
//     allocated into the rubble — THP's 2 MB faults fail with
//     mem.ErrFragmented and fall back to 4 KB, so policies that bank on
//     huge pages lose them exactly when allocation resumes.
//
//   - CG.shift: a gather structure's hot subset collapses from a broad
//     working set onto a handful of pages mid-run — policies that sized
//     pages or placed memory during the benign early phase are wrong
//     afterwards, and only continuous monitoring recovers.

// dynamic lists the constructors of the event-timeline workloads.
var dynamic = []func() Spec{WCChurn, CGShift}

// Dynamic returns the event-timeline workloads.
func Dynamic() []Spec { return specsOf(dynamic) }

// WCChurn is the Metis word-count shape with the allocation lifecycle
// the real program has: a huge intermediate arena built during the map
// phase, torn down at the reduce barrier, and replaced by a fresh output
// arena. The arena is sized to consume nearly all of machine A's DRAM,
// so its teardown (scattered 4 KB frees — uncorrelated lifetimes in the
// buddy model) leaves every node with ample free bytes but almost no 2 MB
// contiguity. The fresh arena then faults in lazily: under 4 KB policies
// nothing changes, while THP-family policies see their 2 MB faults fail
// with ErrFragmented and degrade to 4 KB pages they can no longer
// promote — the contiguity collapse §2.1 attributes to real Linux.
func WCChurn() Spec {
	return Spec{
		Name: "WC.churn",
		Regions: []RegionSpec{
			{Name: "input", Bytes: 2 * gib, Weight: 0.24, Loc: cache.Stream, DRAMFloor: 0.30,
				Sharing: SharedAll, Init: InitStriped, FileBacked: true, InitTouchWeight: 24},
			// The map-phase arena: file-backed (4 KB frames even under THP,
			// like Metis' mmap'd intermediate files), striped over every
			// node, and sized to exhaust the machine.
			{Name: "arena", Bytes: 60 * gib, Weight: 0.58, Loc: cache.ZipfHot, HotFrac: 0.10,
				DRAMCap: 0.30, Sharing: SharedAll, Init: InitStriped, FileBacked: true,
				InitTouchWeight: 16},
			{Name: "locals", Bytes: 512 * mib, Weight: 0.18, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 24},
		},
		Events: []EventSpec{
			// Reduce barrier: the arena is torn down to its live residue.
			// The buddy model frees scattered frames, shattering every
			// node's free lists into 4 KB holes.
			{AtWorkFrac: 0.35, ShrinkRegion: "arena", ShrinkToFrac: 0.08,
				Weights: []float64{0.42, 0.22, 0.36}},
			// Output phase: a fresh anonymous arena allocated into the
			// rubble. THP wants 2 MB faults here; the fragmented nodes
			// return ErrFragmented and the faults degrade to 4 KB.
			{AtWorkFrac: 0.50,
				Alloc: &RegionSpec{Name: "output", Bytes: 4 * gib, Weight: 0.52,
					Loc: cache.ZipfHot, HotFrac: 0.06, DRAMFloor: 0.25,
					Sharing: SharedAll, ChurnPer1K: 1.2, ChurnTHPFrac: 0.7},
				Weights: []float64{0.16, 0.12, 0.20, 0.52}},
		},
		WorkPerThread:        1.6e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.65,
	}
}

// CGShift is the CG shape with a mid-run hot-set collapse: the gather
// vector's accesses are spread across half the region early (every 2 MB
// page looks healthy, so conservative policies keep huge pages and
// placements), then concentrate onto 1% of it — a few 2 MB pages now
// soak up most DRAM traffic, the paper's hot-page mechanism arriving
// *after* every one-shot decision has been made. A second shift relaxes
// the set again, stranding whatever reactive splits the first shift
// provoked.
func CGShift() Spec {
	return Spec{
		Name: "CG.shift",
		Regions: []RegionSpec{
			{Name: "matrix", Bytes: 1600 * mib, Weight: 0.36, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 192},
			{Name: "gather", Bytes: 512 * mib, Weight: 0.44, Loc: cache.ZipfHot,
				HotFrac: 0.50, HotAccessFrac: 0.75, DRAMFloor: 0.55,
				Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 192},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.20, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 192},
		},
		Events: []EventSpec{
			// The solver reaches the dominant eigencomponent: accesses
			// collapse onto 1% of the gather vector (~5 MB, two-three 2 MB
			// pages) at 90% intensity.
			{AtWorkFrac: 0.40,
				Shift:   &ShiftSpec{Region: "gather", HotFrac: 0.01, HotAccessFrac: 0.90},
				Weights: []float64{0.36, 0.44, 0.20}},
			// Late phase: the hot set relaxes again; pages split by a
			// reactive policy during the collapse now cost TLB reach.
			{AtWorkFrac: 0.75,
				Shift:   &ShiftSpec{Region: "gather", HotFrac: 0.30, HotAccessFrac: 0.75},
				Weights: []float64{0.36, 0.44, 0.20}},
		},
		WorkPerThread:        2.2e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.62,
	}
}
