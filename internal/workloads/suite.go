package workloads

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
)

// Region sizes are scaled to roughly 1/8 of the real benchmarks' memory
// use (§2.1 reports 518 MB for EP.C up to 34 GB for IS.D): the paper's
// phenomena depend on footprints relative to TLB reach, cache capacity and
// node count, not on absolute gigabytes, and the scaling keeps full-suite
// simulations fast. DESIGN.md documents this substitution.
const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// suite lists the constructors of Figure 1's 19 benchmarks in the
// paper's order.
var suite = []func() Spec{
	BT, CG, DC, EP, FT, IS, LU, MG, SP,
	UAB, UAC, WC, WR, Kmeans, MatrixMultiply,
	PCA, Wrmem, SSCA, SPECjbb,
}

// Suite returns the 19 benchmarks of Figure 1 in the paper's order.
func Suite() []Spec { return specsOf(suite) }

// specsOf calls each constructor once, in order.
func specsOf(ctors []func() Spec) []Spec {
	out := make([]Spec, len(ctors))
	for i, ctor := range ctors {
		out[i] = ctor()
	}
	return out
}

// ReducedSet returns the applications whose NUMA metrics (LAR or
// imbalance) are degraded by >15% under THP — the paper's focus set for
// Figures 2-4 (§3).
func ReducedSet() []Spec {
	return []Spec{CG(), LU(), UAB(), UAC(), MatrixMultiply(), Wrmem(), SSCA(), SPECjbb()}
}

// UnaffectedSet returns the complement, shown in Figure 5.
func UnaffectedSet() []Spec {
	return []Spec{BT(), DC(), EP(), FT(), IS(), MG(), SP(), WC(), WR(), Kmeans(), PCA()}
}

// ErrUnknownWorkload is the typed resolution failure of ByName, matched
// with errors.Is by callers that must tell a bad benchmark name from an
// engine failure (the serve layer answers it with HTTP 400).
var ErrUnknownWorkload = errors.New("workloads: unknown benchmark")

// ByName finds a spec by its paper name (e.g. "CG.D", "SSCA.20"). It
// builds only the named spec, and a fresh one on every call, because an
// engine mutates its Spec's slices.
func ByName(name string) (Spec, error) {
	if ctor, ok := ctorByName()[name]; ok {
		return ctor(), nil
	}
	return Spec{}, CheckName(name)
}

// CheckName returns ByName's error for name, or nil when ByName would
// succeed, without building a spec.
func CheckName(name string) error {
	if _, ok := ctorByName()[name]; ok {
		return nil
	}
	return fmt.Errorf("%w %q", ErrUnknownWorkload, name)
}

// ctorByName maps every benchmark name to its constructor: the suite,
// streamcluster and the dynamic workloads, built once on first use.
var ctorByName = sync.OnceValue(func() map[string]func() Spec {
	all := append(append(append([]func() Spec(nil), suite...), Streamcluster), dynamic...)
	m := make(map[string]func() Spec, len(all))
	for _, ctor := range all {
		m[ctor().Name] = ctor
	}
	return m
})

// Names lists every available benchmark name, sorted.
func Names() []string {
	out := make([]string, 0, len(ctorByName()))
	for name := range ctorByName() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BT is NAS BT.B: block-tridiagonal CFD. Blocked private fields streamed
// with good locality; no NUMA sensitivity, mild TLB benefit from THP.
func BT() Spec {
	return Spec{
		Name: "BT.B",
		Regions: []RegionSpec{
			{Name: "fields", Bytes: 1200 * mib, Weight: 0.78, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 256},
			{Name: "faces", Bytes: 96 * mib, Weight: 0.12, Loc: cache.ZipfHot, HotFrac: 0.05,
				DRAMCap: 0.35, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 256},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.10, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 256},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 5,
		MLPOverlap:           0.75,
	}
}

// CG is NAS CG.D: conjugate gradient. The sparse-matrix rows are private
// streams, the gather over the shared vector is random and remote-heavy,
// and three small write-shared reduction structures each fit in a single
// 2 MB page — the paper's hot-page effect (Table 2: NHP 0→3, PAMUP 0→8%,
// imbalance 1→59% on machine B).
func CG() Spec {
	return Spec{
		Name: "CG.D",
		Regions: []RegionSpec{
			{Name: "matrix", Bytes: 1600 * mib, Weight: 0.36, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 192},
			{Name: "vecs", Bytes: 96 * mib, Weight: 0.16, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 192},
			{Name: "gather", Bytes: 6 * mib, Weight: 0.28, Loc: cache.RandomUniform,
				DRAMFloor: 0.60, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 192},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.20, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 192},
		},
		WorkPerThread:        2.5e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.62,
	}
}

// DC is NAS DC.A: the data-cube benchmark is dominated by memory-mapped
// file views (ineligible for THP), so THP barely moves it.
func DC() Spec {
	return Spec{
		Name: "DC.A",
		Regions: []RegionSpec{
			{Name: "views", Bytes: 700 * mib, Weight: 0.55, Loc: cache.ZipfHot, HotFrac: 0.02,
				Sharing: SharedAll, Init: InitStriped, FileBacked: true, InitTouchWeight: 96},
			{Name: "tuples", Bytes: 160 * mib, Weight: 0.30, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, Init: InitOwner, ChurnPer1K: 0.10, ChurnTHPFrac: 0.6,
				InitTouchWeight: 96},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.15, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 96},
		},
		WorkPerThread:        1.3e8,
		ExtraCyclesPerAccess: 6,
		MLPOverlap:           0.6,
	}
}

// EP is NAS EP.C: embarrassingly parallel, small footprint, compute
// bound. Its constant tables are initialized by the master thread, a
// pre-existing NUMA imbalance that Carrefour (inside Carrefour-LP) fixes
// regardless of page size — the reason Figure 5 shows Carrefour-LP beating
// THP on EP.
func EP() Spec {
	return Spec{
		Name: "EP.C",
		Regions: []RegionSpec{
			{Name: "tables", Bytes: 256 * mib, Weight: 0.45, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, Init: InitMaster, InitTouchWeight: 256},
			{Name: "consts", Bytes: 64 * mib, Weight: 0.25, Loc: cache.RandomUniform,
				DRAMFloor: 0.2, Sharing: SharedAll, Init: InitMaster, InitTouchWeight: 256},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.30, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 256},
		},
		WorkPerThread:        1.5e8,
		ExtraCyclesPerAccess: 14,
		MLPOverlap:           0.5,
	}
}

// FT is NAS FT.C: FFT with all-to-all transposes over a shared grid. The
// hot working set is TLB-coverable even at 4 KB, so THP gains little; the
// transposes keep DRAM busy from all nodes.
func FT() Spec {
	return Spec{
		Name: "FT.C",
		Regions: []RegionSpec{
			{Name: "grid", Bytes: 1400 * mib, Weight: 0.72, Loc: cache.ZipfHot, HotFrac: 0.03,
				DRAMFloor: 0.35, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 128},
			{Name: "twiddle", Bytes: 32 * mib, Weight: 0.12, Loc: cache.RandomUniform,
				Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 128},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.16, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 128},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.8,
	}
}

// IS is NAS IS.D: integer bucket sort, the suite's largest footprint
// (34 GB real, scaled here). Key streams plus scattered bucket counters.
func IS() Spec {
	return Spec{
		Name: "IS.D",
		Regions: []RegionSpec{
			{Name: "keys", Bytes: 3400 * mib, Weight: 0.48, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 200},
			{Name: "buckets", Bytes: 768 * mib, Weight: 0.40, Loc: cache.ZipfHot, HotFrac: 0.03,
				DRAMFloor: 0.30, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 200},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.12, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 200},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.82,
	}
}

// LU is NAS LU.B: pipelined SSOR solver. Ownership blocks are smaller than
// a large page, so THP introduces moderate page sharing; a write-shared
// pivot structure keeps Carrefour interested. In the reduced set.
func LU() Spec {
	return Spec{
		Name: "LU.B",
		Regions: []RegionSpec{
			{Name: "mesh", Bytes: 512 * mib, Weight: 0.58, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, BlockBytes: 512 * kib, ScatterBlocks: true,
				HaloFrac: 0.10, HaloBytes: 32 * kib, Init: InitOwner, InitTouchWeight: 192},
			{Name: "pivots", Bytes: 8 * mib, Weight: 0.12, Loc: cache.ZipfHot, HotFrac: 0.4,
				DRAMFloor: 0.30, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 192},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.30, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 192},
		},
		WorkPerThread:        1.5e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.68,
	}
}

// MG is NAS MG.D: multigrid with streaming sweeps over private grids and
// a small shared coarse level; modest THP benefit.
func MG() Spec {
	return Spec{
		Name: "MG.D",
		Regions: []RegionSpec{
			{Name: "grids", Bytes: 3000 * mib, Weight: 0.66, Loc: cache.Stream,
				Sharing: PrivateBlocked, HaloFrac: 0.05, HaloBytes: 64 * kib,
				Init: InitOwner, InitTouchWeight: 200},
			{Name: "coarse", Bytes: 48 * mib, Weight: 0.22, Loc: cache.RandomUniform,
				DRAMFloor: 0.15, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 200},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.12, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 200},
		},
		WorkPerThread:        1.5e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.8,
	}
}

// SP is NAS SP.B: like BT but its fields are initialized in striped
// order rather than by their eventual owners, leaving poor locality under
// any page size — a pre-existing NUMA problem Carrefour-LP's placement
// fixes (Figure 5b).
func SP() Spec {
	return Spec{
		Name: "SP.B",
		Regions: []RegionSpec{
			{Name: "fields", Bytes: 700 * mib, Weight: 0.62, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, Init: InitMaster, InitTouchWeight: 224},
			{Name: "rhs", Bytes: 64 * mib, Weight: 0.22, Loc: cache.RandomUniform,
				DRAMFloor: 0.3, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 224},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.16, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 224},
		},
		WorkPerThread:        1.5e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.7,
	}
}

// ua builds the UA spec shared by classes B and C: an unstructured
// adaptive mesh whose 1 MB ownership blocks are scattered, so every 2 MB
// page holds two unrelated threads' elements — the paper's page-level
// false sharing (Table 2: PSP 16%→70%, LAR 90%→61% for UA.B).
func ua(name string, meshBytes uint64, work float64) Spec {
	return Spec{
		Name: name,
		Regions: []RegionSpec{
			{Name: "mesh", Bytes: meshBytes, Weight: 0.70, Loc: cache.ZipfHot, HotFrac: 0.10,
				DRAMFloor: 0.45, Sharing: PrivateBlocked, BlockBytes: 1 * mib, ScatterBlocks: true,
				HaloFrac: 0.16, HaloBytes: 16 * kib, Init: InitOwner, InitTouchWeight: 192},
			{Name: "globals", Bytes: 4 * kib, Weight: 0.06, Loc: cache.Resident,
				Sharing: SharedAll, Init: InitMaster, InitTouchWeight: 192},
			{Name: "scratch", Bytes: 256 * mib, Weight: 0.24, Loc: cache.RandomUniform,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 192},
		},
		WorkPerThread:        work,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.62,
	}
}

// UAB is NAS UA.B.
func UAB() Spec { return ua("UA.B", 512*mib, 2.6e8) }

// UAC is NAS UA.C (the larger class run on machine B in Table 1).
func UAC() Spec { return ua("UA.C", 1408*mib, 3.0e8) }

// WC is Metis wordcount: an allocation-churning MapReduce whose 4 KB runs
// spend 37.6% of their time in the page-fault handler (Table 1); THP
// roughly halves fault time and doubles performance on machine B. The
// file-backed input is streamed from the master's node, which is why its
// controller imbalance is huge (147%) under both page sizes.
func WC() Spec {
	return Spec{
		Name: "WC",
		Regions: []RegionSpec{
			{Name: "input", Bytes: 768 * mib, Weight: 0.26, Loc: cache.Stream, DRAMFloor: 0.30,
				Sharing: SharedAll, Init: InitMaster, FileBacked: true, InitTouchWeight: 48},
			{Name: "intermediate", Bytes: 1792 * mib, Weight: 0.56, Loc: cache.ZipfHot,
				HotFrac: 0.05, DRAMCap: 0.22, Sharing: SharedAll, Init: InitStriped,
				ChurnPer1K: 2.6, ChurnTHPFrac: 0.7, InitTouchWeight: 32},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.18, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 32},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.65,
	}
}

// WR is Metis wordreverse: WC's shape with lighter churn.
func WR() Spec {
	return Spec{
		Name: "WR",
		Regions: []RegionSpec{
			{Name: "input", Bytes: 640 * mib, Weight: 0.28, Loc: cache.Stream, DRAMFloor: 0.25,
				Sharing: SharedAll, Init: InitMaster, FileBacked: true, InitTouchWeight: 48},
			{Name: "intermediate", Bytes: 1280 * mib, Weight: 0.54, Loc: cache.ZipfHot,
				HotFrac: 0.05, DRAMCap: 0.22, Sharing: SharedAll, Init: InitStriped,
				ChurnPer1K: 1.9, ChurnTHPFrac: 0.7, InitTouchWeight: 32},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.18, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 32},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.65,
	}
}

// Kmeans is Metis kmeans: streaming points with cache-resident centroids;
// NUMA-neutral.
func Kmeans() Spec {
	return Spec{
		Name: "Kmeans",
		Regions: []RegionSpec{
			{Name: "points", Bytes: 1 * gib, Weight: 0.62, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 192},
			{Name: "centroids", Bytes: 1 * mib, Weight: 0.22, Loc: cache.ZipfHot, HotFrac: 0.5,
				Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 192},
			{Name: "sums", Bytes: 128 * mib, Weight: 0.16, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 192},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 6,
		MLPOverlap:           0.75,
	}
}

// MatrixMultiply is Metis matrix_mult: private A/C streams and a shared B
// matrix whose hot panel coalesces onto a handful of 2 MB pages,
// unbalancing controllers under THP (reduced set) without changing mean
// performance much.
func MatrixMultiply() Spec {
	return Spec{
		Name: "MatrixMultiply",
		Regions: []RegionSpec{
			{Name: "a", Bytes: 384 * mib, Weight: 0.26, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 224},
			{Name: "b", Bytes: 512 * mib, Weight: 0.52, Loc: cache.ZipfHot, HotFrac: 0.01,
				DRAMFloor: 0.22, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 224},
			{Name: "c", Bytes: 384 * mib, Weight: 0.22, Loc: cache.Stream,
				Sharing: PrivateBlocked, Init: InitOwner, InitTouchWeight: 224},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 5,
		MLPOverlap:           0.78,
	}
}

// PCA is Metis pca: the matrix is built by the master thread, so every
// run starts with all data on one node — a severe pre-existing NUMA
// problem (LAR ≈ 1/nodes, huge imbalance) that page placement fixes and
// page size barely affects (Figure 5).
func PCA() Spec {
	return Spec{
		Name: "pca",
		Regions: []RegionSpec{
			{Name: "matrix", Bytes: 1 * gib, Weight: 0.55, Loc: cache.ZipfHot, HotFrac: 0.005,
				DRAMFloor: 0.3, Sharing: SharedAll, Init: InitMaster, InitTouchWeight: 160},
			{Name: "cov", Bytes: 64 * mib, Weight: 0.25, Loc: cache.RandomUniform,
				DRAMFloor: 0.25, Sharing: SharedAll, Init: InitMaster, InitTouchWeight: 160},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.20, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 160},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.55,
	}
}

// Wrmem is Metis wrmem: write-random-memory, allocation churn plus a hot
// subset that coalesces under THP (reduced set; THP still wins overall via
// fault time, +51% on machine B in Figure 2).
func Wrmem() Spec {
	return Spec{
		Name: "wrmem",
		Regions: []RegionSpec{
			{Name: "buffer", Bytes: 1792 * mib, Weight: 0.70, Loc: cache.ZipfHot, HotFrac: 0.04,
				DRAMFloor: 0.2, Sharing: SharedAll, Init: InitStriped,
				ChurnPer1K: 2.4, ChurnTHPFrac: 0.75, InitTouchWeight: 24},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.30, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 24},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.68,
	}
}

// SSCA is SSCA v2.2 with problem size 20: pointer-chasing over a large
// graph (severe TLB pressure at 4 KB: the paper measures 15% of L2 misses
// from page walks, dropping to 2% under THP) plus a write-shared property
// array whose hot prefix lands on ~3 2 MB chunks, driving imbalance from
// 8% to 52% under THP on machine A (Table 1).
func SSCA() Spec {
	return Spec{
		Name: "SSCA.20",
		Regions: []RegionSpec{
			{Name: "graph", Bytes: 1792 * mib, Weight: 0.42, Loc: cache.ZipfHot, HotFrac: 0.04, HotAccessFrac: 0.85,
				Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 96},
			{Name: "props", Bytes: 24 * mib, Weight: 0.44, Loc: cache.ZipfHot, HotFrac: 0.25,
				DRAMFloor: 0.20, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 96},
			{Name: "work", Bytes: 128 * mib, Weight: 0.14, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 96},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 3,
		MLPOverlap:           0.45,
	}
}

// SPECjbb models the Java business benchmark: a big shared heap with a
// scattered-then-coalescing hot set (imbalance 16%→39% under THP on
// machine A) and GC allocation churn; TLB relief under THP is real (7%→0%
// of L2 misses) but NUMA issues eat the gain until Carrefour-LP fixes
// placement (§2.2, §4.1).
func SPECjbb() Spec {
	return Spec{
		Name: "SPECjbb",
		Regions: []RegionSpec{
			{Name: "heap", Bytes: 1600 * mib, Weight: 0.68, Loc: cache.ZipfHot, HotFrac: 0.0125, HotAccessFrac: 0.97,
				DRAMFloor: 0.35, Sharing: SharedAll, Init: InitStriped,
				ChurnPer1K: 0.15, ChurnTHPFrac: 0.8, InitTouchWeight: 64},
			{Name: "young", Bytes: 128 * mib, Weight: 0.12, Loc: cache.RandomUniform,
				DRAMFloor: 0.2, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 64},
			{Name: "stacks", Bytes: 128 * mib, Weight: 0.20, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 64},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 14,
		MLPOverlap:           0.6,
	}
}

// Streamcluster is the PARSEC application of §4.4: fine with 2 MB pages,
// but with 1 GB pages its entire working set — streamed points and the
// write-shared centers — coalesces onto a single node and performance
// collapses by ~4×.
func Streamcluster() Spec {
	return Spec{
		Name: "streamcluster",
		Regions: []RegionSpec{
			{Name: "points", Bytes: 512 * mib, Weight: 0.50, Loc: cache.Stream,
				Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 160},
			{Name: "centers", Bytes: 40 * mib, Weight: 0.40, Loc: cache.ZipfHot, HotFrac: 0.3,
				DRAMFloor: 0.75, Sharing: SharedAll, Init: InitStriped, InitTouchWeight: 160},
			{Name: "locals", Bytes: 128 * mib, Weight: 0.10, Loc: cache.Resident,
				Sharing: PrivateBlocked, BlockBytes: 2 * mib, Init: InitOwner, InitTouchWeight: 160},
		},
		WorkPerThread:        1.4e8,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.7,
	}
}
