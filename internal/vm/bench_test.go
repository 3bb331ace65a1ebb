package vm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/topo"
)

func benchSpace(tb testing.TB, size mem.PageSize) (*AddrSpace, *Region) {
	tb.Helper()
	m := topo.MachineB()
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	space := NewAddrSpace(m, phys, DefaultFaultParams())
	space.AllocSize = func(*Region, int) mem.PageSize { return size }
	r := space.Mmap("bench", 256<<20, true)
	// Map everything up front so the loop measures the mapped fast path.
	for off := uint64(0); off < 256<<20; off += uint64(mem.Size4K) {
		r.Access(topo.CoreID(int(off/uint64(mem.Size4K))%64), int(off/uint64(mem.Size4K))%64, off)
	}
	return space, r
}

// BenchmarkRegionAccess measures the mapped-page access fast path (the
// per-touch cost of the allocation phase's per-page path: the reference
// run and the batched run's escape hatch).
// Run with -benchmem; allocations must be 0, enforced by
// TestRegionAccessZeroAlloc.
func BenchmarkRegionAccess(b *testing.B) {
	for _, tc := range []struct {
		name string
		size mem.PageSize
	}{{"2M", mem.Size2M}, {"4K", mem.Size4K}} {
		b.Run(tc.name, func(b *testing.B) {
			_, r := benchSpace(b, tc.size)
			b.ReportAllocs()
			b.ResetTimer()
			var off uint64
			for i := 0; i < b.N; i++ {
				r.Access(topo.CoreID(i&63), i&63, off)
				off = (off + 64) % (256 << 20)
			}
		})
	}
}

// BenchmarkPeekRecord measures the parallel pricing stage's combined
// lookup+accounting call in both accounting modes.
func BenchmarkPeekRecord(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "plain"
		if shared {
			name = "atomic"
		}
		b.Run(name, func(b *testing.B) {
			_, r := benchSpace(b, mem.Size2M)
			b.ReportAllocs()
			b.ResetTimer()
			var off uint64
			for i := 0; i < b.N; i++ {
				r.PeekRecord(off, i&63, shared)
				off = (off + 64) % (256 << 20)
			}
		})
	}
}

// TestRegionAccessZeroAlloc pins the allocation-free contract of the
// mapped access paths under both page sizes.
func TestRegionAccessZeroAlloc(t *testing.T) {
	for _, size := range []mem.PageSize{mem.Size2M, mem.Size4K} {
		_, r := benchSpace(t, size)
		var off uint64
		allocs := testing.AllocsPerRun(100, func() {
			r.Access(topo.CoreID(0), 0, off)
			r.PeekRecord(off, 1, true)
			off = (off + uint64(mem.Size4K)) % (256 << 20)
		})
		if allocs != 0 {
			t.Fatalf("%s access allocates %.1f times, want 0", size, allocs)
		}
	}
}
