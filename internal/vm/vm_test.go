package vm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

func newSpace() *AddrSpace {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	return NewAddrSpace(m, phys, DefaultFaultParams())
}

func thpSpace() *AddrSpace {
	s := newSpace()
	s.AllocSize = func(*Region, int) mem.PageSize { return mem.Size2M }
	return s
}

func TestMmapSizes(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 5*uint64(mem.Size2M)+1, true)
	if r.NumChunks() != 6 {
		t.Fatalf("chunks = %d, want 6 (rounded up)", r.NumChunks())
	}
	if r.MappedBytes() != 0 {
		t.Fatal("fresh region should have nothing mapped")
	}
}

func TestMmapZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSpace().Mmap("x", 0, true)
}

func TestResolve(t *testing.T) {
	s := newSpace()
	r1 := s.Mmap("a", 4<<20, true)
	r2 := s.Mmap("b", 4<<20, true)
	if s.Resolve(r1.Start) != r1 || s.Resolve(r2.Start+100) != r2 {
		t.Fatal("Resolve misrouted")
	}
	if s.Resolve(1) != nil {
		t.Fatal("Resolve invented a region")
	}
}

func TestFirstTouch4K(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 8<<20, true)
	// Core 0 is on node 0, core 6 on node 1 (machine A: 6 cores/node).
	res := r.Access(0, 0, 0)
	if !res.Faulted || res.PageSize != mem.Size4K || res.Node != 0 {
		t.Fatalf("first touch: %+v", res)
	}
	res2 := r.Access(6, 1, uint64(mem.Size4K)) // next 4K page, core on node 1
	if !res2.Faulted || res2.Node != 1 {
		t.Fatalf("second touch: %+v", res2)
	}
	// Re-access does not fault and sees the established node.
	res3 := r.Access(6, 1, 0)
	if res3.Faulted || res3.Node != 0 {
		t.Fatalf("re-access: %+v", res3)
	}
	n4k, n2m, _ := r.MappedPages()
	if n4k != 2 || n2m != 0 {
		t.Fatalf("mapped pages: %d×4K %d×2M", n4k, n2m)
	}
}

func TestFirstTouch2MClaimsWholeChunk(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 8<<20, true)
	res := r.Access(7, 1, 12345) // core 7 = node 1
	if !res.Faulted || res.PageSize != mem.Size2M || res.Node != 1 {
		t.Fatalf("THP fault: %+v", res)
	}
	// A different thread touching elsewhere in the same chunk sees node 1
	// with no fault: the 2 MB first-toucher claimed the whole chunk. This
	// is the coarsened-first-touch mechanism behind THP-induced imbalance.
	res2 := r.Access(0, 0, uint64(mem.Size2M)-1)
	if res2.Faulted || res2.Node != 1 || res2.PageSize != mem.Size2M {
		t.Fatalf("same-chunk access: %+v", res2)
	}
}

func TestTHPIneligibleRegionStays4K(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("filemap", 4<<20, false)
	res := r.Access(0, 0, 0)
	if res.PageSize != mem.Size4K {
		t.Fatalf("file-backed region got %v page", res.PageSize)
	}
}

func TestFaultCostCharged(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 4<<20, true)
	res := r.Access(3, 0, 0)
	if res.FaultCycles <= 0 {
		t.Fatal("fault must cost cycles")
	}
	if got := s.FaultCycles(3); got != res.FaultCycles {
		t.Fatalf("core 3 charged %v, want %v", got, res.FaultCycles)
	}
	n4k, n2m, n1g := s.FaultCounts()
	if n4k != 1 || n2m != 0 || n1g != 0 {
		t.Fatalf("fault counts: %d %d %d", n4k, n2m, n1g)
	}
}

func TestFaultLockContentionLagged(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 64<<20, true)
	s.BeginEpoch()
	// Epoch 1: 6 threads fault concurrently; contention is based on the
	// previous (empty) epoch, so faults are cheap.
	base := r.Access(0, 0, 0).FaultCycles
	for i := 1; i < 6; i++ {
		r.Access(topo.CoreID(i), i, uint64(i)*uint64(mem.Size4K))
	}
	s.BeginEpoch()
	// Epoch 2: lagged faulter count is 6 → each fault now pays lock wait.
	contended := r.Access(0, 0, 100*uint64(mem.Size4K)).FaultCycles
	if contended <= base {
		t.Fatalf("contended fault %v not above uncontended %v", contended, base)
	}
	want := base + 5*s.Faults.LockCyclesPerFaulter
	if contended != want {
		t.Fatalf("contended fault = %v, want %v", contended, want)
	}
}

func TestPhysicalAccounting(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 8<<20, true)
	r.Access(0, 0, 0)
	if got := s.Phys.Allocated(0); got != uint64(mem.Size2M) {
		t.Fatalf("node 0 allocated %d, want one 2M page", got)
	}
}

func TestMigrateChunk(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0) // 2M page on node 0
	cyc, ok := r.MigrateChunk(0, 2, DefaultOpCosts())
	if !ok || cyc != DefaultOpCosts().Migrate2M {
		t.Fatalf("migrate: %v %v", cyc, ok)
	}
	if res := r.Access(0, 0, 0); res.Node != 2 {
		t.Fatalf("after migrate, node = %d", res.Node)
	}
	if s.Phys.Allocated(0) != 0 || s.Phys.Allocated(2) != uint64(mem.Size2M) {
		t.Fatal("physical accounting not moved")
	}
	// Migrating to the current home is a no-op.
	if _, ok := r.MigrateChunk(0, 2, DefaultOpCosts()); ok {
		t.Fatal("self-migration should be skipped")
	}
}

func TestSplitChunk(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0)
	cyc, ok := r.SplitChunk(0, DefaultOpCosts())
	if !ok || cyc <= 0 {
		t.Fatal("split failed")
	}
	info := r.ChunkInfo(0)
	if info.State != Mapped4K || info.MappedSubs != SubsPerChunk {
		t.Fatalf("after split: %+v", info)
	}
	// All subs on the original node; physical bytes unchanged.
	if n, ok := r.SubNode(0, 99); !ok || n != 0 {
		t.Fatalf("sub 99 on node %d", n)
	}
	if s.Phys.Allocated(0) != uint64(mem.Size2M) {
		t.Fatalf("allocated = %d after split", s.Phys.Allocated(0))
	}
	// Accesses now resolve at 4K granularity without faulting.
	res := r.Access(6, 1, 123*uint64(mem.Size4K))
	if res.Faulted || res.PageSize != mem.Size4K {
		t.Fatalf("post-split access: %+v", res)
	}
	// Splitting twice is a no-op.
	if _, ok := r.SplitChunk(0, DefaultOpCosts()); ok {
		t.Fatal("double split should fail")
	}
}

// TestUnmapLastSubUnmapsChunk pins the split record's lifecycle: a
// split chunk keeps 4 KB granularity while any of its pages is mapped,
// and releasing the last one unmaps the chunk, so its next first touch
// may take a 2 MB fault again.
func TestUnmapLastSubUnmapsChunk(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0)
	if _, ok := r.SplitChunk(0, DefaultOpCosts()); !ok {
		t.Fatal("split failed")
	}
	last := uint64(mem.Size2M) - uint64(mem.Size4K)
	r.Unmap(0, last)
	if info := r.ChunkInfo(0); info.State != Mapped4K || info.MappedSubs != 1 {
		t.Fatalf("after freeing all but one page: %+v", info)
	}
	if run := r.ClassifyAllocRun(0, []uint32{0}); run.Kind != AllocRunFault4K {
		t.Fatalf("split chunk classifies as %+v, want a 4 KB fault", run)
	}
	r.Unmap(last, uint64(mem.Size2M))
	if info := r.ChunkInfo(0); info.State != Unmapped || r.chunks[0].subs != nil {
		t.Fatalf("after freeing the last page: %+v, split record kept %v", info, r.chunks[0].subs != nil)
	}
	if got := s.Phys.Allocated(0); got != 0 {
		t.Fatalf("allocated = %d after freeing every page", got)
	}
	if _, st := r.PeekRecord(0, 0, false); st != PeekUnmappedChunk {
		t.Fatalf("PeekRecord status %d, want PeekUnmappedChunk", st)
	}
	if run := r.ClassifyAllocRun(0, []uint32{0, 1}); run.Kind != AllocRunFault2M || run.N != 1 {
		t.Fatalf("unmapped chunk classifies as %+v, want a single 2 MB claim", run)
	}
	if res := r.Access(0, 0, 0); !res.Faulted || res.PageSize != mem.Size2M {
		t.Fatalf("first touch after the unmap: %+v, want a 2 MB fault", res)
	}
}

func TestInterleaveSubs(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0)
	r.SplitChunk(0, DefaultOpCosts())
	cyc := r.InterleaveSubs(0, stats.NewRng(1), DefaultOpCosts())
	if cyc <= 0 {
		t.Fatal("interleave should cost cycles")
	}
	counts := make(map[topo.NodeID]int)
	for i := 0; i < SubsPerChunk; i++ {
		n, ok := r.SubNode(0, i)
		if !ok {
			t.Fatalf("sub %d unmapped after interleave", i)
		}
		counts[n]++
	}
	if len(counts) != 4 {
		t.Fatalf("interleave used %d nodes, want 4", len(counts))
	}
	for n, c := range counts {
		if c != SubsPerChunk/4 {
			t.Fatalf("node %d has %d subs, want %d", n, c, SubsPerChunk/4)
		}
	}
}

func TestPromoteChunk(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 4<<20, true)
	// Fault all 512 subs from cores on different nodes.
	for i := 0; i < SubsPerChunk; i++ {
		core := topo.CoreID((i % 4) * 6) // nodes 0..3
		r.Access(core, int(core), uint64(i)*uint64(mem.Size4K))
	}
	node, ok := r.DominantSubNode(0)
	if !ok {
		t.Fatal("no dominant node")
	}
	cyc, ok := r.PromoteChunk(0, node, SubsPerChunk/2, DefaultOpCosts())
	if !ok || cyc <= DefaultOpCosts().PromoteMin {
		t.Fatalf("promote: %v %v (gathering must cost more than remap)", cyc, ok)
	}
	info := r.ChunkInfo(0)
	if info.State != Mapped2M || info.Node != node {
		t.Fatalf("after promote: %+v", info)
	}
	var total uint64
	for n := 0; n < 4; n++ {
		total += s.Phys.Allocated(topo.NodeID(n))
	}
	if total != uint64(mem.Size2M) {
		t.Fatalf("physical bytes after promote = %d", total)
	}
}

func TestPromoteRespectsThreshold(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0) // only one sub mapped
	if _, ok := r.PromoteChunk(0, 0, SubsPerChunk/2, DefaultOpCosts()); ok {
		t.Fatal("promotion should require the sub threshold")
	}
}

func TestGiantPages(t *testing.T) {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	s := NewAddrSpace(m, phys, DefaultFaultParams())
	r := s.Mmap("graph", 2<<30, true)
	if err := r.MapGiant(0, 3); err != nil {
		t.Fatal(err)
	}
	res := r.Access(0, 0, 999<<20) // within the first 1 GB
	if res.Faulted || res.PageSize != mem.Size1G || res.Node != 3 {
		t.Fatalf("giant access: %+v", res)
	}
	_, _, n1g := r.MappedPages()
	if n1g != 1 {
		t.Fatalf("mapped 1G pages = %d", n1g)
	}
	// The second gigabyte is untouched.
	if err := r.MapGiant(ChunksPerGiant, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.MapGiant(0, 0); err == nil {
		t.Fatal("double giant mapping should fail")
	}
	if err := r.MapGiant(3, 0); err == nil {
		t.Fatal("unaligned giant mapping should fail")
	}
}

func TestSplitGiant(t *testing.T) {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	s := NewAddrSpace(m, phys, DefaultFaultParams())
	r := s.Mmap("graph", 1<<30, true)
	if err := r.MapGiant(0, 2); err != nil {
		t.Fatal(err)
	}
	cyc, ok := r.SplitGiant(0, DefaultOpCosts())
	if !ok || cyc <= 0 {
		t.Fatal("giant split failed")
	}
	_, n2m, n1g := r.MappedPages()
	if n2m != ChunksPerGiant || n1g != 0 {
		t.Fatalf("after giant split: %d×2M %d×1G", n2m, n1g)
	}
	if got := phys.Allocated(2); got != 1<<30 {
		t.Fatalf("node 2 allocated %d after giant split", got)
	}
	if res := r.Access(0, 0, 500<<20); res.Node != 2 || res.PageSize != mem.Size2M {
		t.Fatalf("post-split access: %+v", res)
	}
}

func TestGroundTruthAccounting(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 8<<20, true)
	r.Access(0, 0, 0)
	r.Access(0, 0, 1)
	r.Access(6, 1, 2) // second thread, same 2M page
	var pages []PageAccess
	r.ForEachPage(func(p PageAccess) { pages = append(pages, p) })
	if len(pages) != 1 {
		t.Fatalf("pages = %d, want 1", len(pages))
	}
	if pages[0].Accesses != 3 || pages[0].Threads != 2 {
		t.Fatalf("accounting: %+v", pages[0])
	}
	s.ResetAccessCounters()
	pages = pages[:0]
	r.ForEachPage(func(p PageAccess) { pages = append(pages, p) })
	if pages[0].Accesses != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestAccountingGranularityAfterSplit(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0)
	r.SplitChunk(0, DefaultOpCosts())
	r.Access(0, 0, 0)
	r.Access(6, 1, uint64(mem.Size4K)) // different 4K page, different thread
	var pages []PageAccess
	r.ForEachPage(func(p PageAccess) {
		if p.Accesses > 0 {
			pages = append(pages, p)
		}
	})
	if len(pages) != 2 {
		t.Fatalf("touched 4K pages = %d, want 2", len(pages))
	}
	for _, p := range pages {
		if p.Threads != 1 {
			t.Fatalf("page %v threads = %d, want 1 (no false sharing at 4K)", p.Page, p.Threads)
		}
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 4<<20, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Access(0, 0, 4<<20)
}

func TestFallbackWhenNodeFull(t *testing.T) {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	s := NewAddrSpace(m, phys, DefaultFaultParams())
	s.AllocSize = func(*Region, int) mem.PageSize { return mem.Size2M }
	// Fill node 0 almost completely.
	for phys.FreeBytes(0) >= uint64(mem.Size1G) {
		if err := phys.Allocate(0, mem.Size1G); err != nil {
			t.Fatal(err)
		}
	}
	for phys.FreeBytes(0) >= uint64(mem.Size2M) {
		if err := phys.Allocate(0, mem.Size2M); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Mmap("heap", 4<<20, true)
	res := r.Access(0, 0, 0) // core 0 is node 0, but node 0 is full
	if res.Node == 0 {
		t.Fatal("allocation should have fallen back off the full node")
	}
}

func TestMigrateSub(t *testing.T) {
	s := newSpace()
	r := s.Mmap("heap", 4<<20, true)
	r.Access(0, 0, 0)
	cyc, ok := r.MigrateSub(0, 0, 3, DefaultOpCosts())
	if !ok || cyc != DefaultOpCosts().Migrate4K {
		t.Fatalf("migrate sub: %v %v", cyc, ok)
	}
	if n, _ := r.SubNode(0, 0); n != 3 {
		t.Fatalf("sub node = %d", n)
	}
	// Unmapped sub cannot be migrated.
	if _, ok := r.MigrateSub(0, 1, 2, DefaultOpCosts()); ok {
		t.Fatal("unmapped sub migration should fail")
	}
}

func TestPageCensusInvariant(t *testing.T) {
	s := thpSpace()
	r := s.Mmap("heap", 16<<20, true)
	check := func(step string) {
		t.Helper()
		a4, a2, a1 := r.MappedPages()
		b4, b2, b1 := r.recountPages()
		if a4 != b4 || a2 != b2 || a1 != b1 {
			t.Fatalf("%s: census (%d,%d,%d) != recount (%d,%d,%d)", step, a4, a2, a1, b4, b2, b1)
		}
	}
	check("fresh")
	r.Access(0, 0, 0)
	r.Access(6, 1, 3<<20)
	check("after 2M faults")
	r.SplitChunk(0, DefaultOpCosts())
	check("after split")
	node, _ := r.DominantSubNode(0)
	r.PromoteChunk(0, node, 1, DefaultOpCosts())
	check("after promote")
	s2 := newSpace()
	g := s2.Mmap("giant", 1<<30, true)
	if err := g.MapGiant(0, 1); err != nil {
		t.Fatal(err)
	}
	a4, a2, a1 := g.MappedPages()
	b4, b2, b1 := g.recountPages()
	if a4 != b4 || a2 != b2 || a1 != b1 {
		t.Fatalf("giant census mismatch: (%d,%d,%d) vs (%d,%d,%d)", a4, a2, a1, b4, b2, b1)
	}
	g.SplitGiant(0, DefaultOpCosts())
	a4, a2, a1 = g.MappedPages()
	b4, b2, b1 = g.recountPages()
	if a4 != b4 || a2 != b2 || a1 != b1 {
		t.Fatalf("post-giant-split census mismatch: (%d,%d,%d) vs (%d,%d,%d)", a4, a2, a1, b4, b2, b1)
	}
}

func TestGiantTailSpan(t *testing.T) {
	s := newSpace()
	r := s.Mmap("small", 40<<20, true) // 20 chunks, far below 1 GB
	if err := r.MapGiant(0, 2); err != nil {
		t.Fatal(err)
	}
	// A full 1 GB is reserved physically even for a small region.
	if got := s.Phys.Allocated(2); got != 1<<30 {
		t.Fatalf("allocated = %d, want 1 GiB reserved", got)
	}
	if res := r.Access(0, 0, 39<<20); res.Node != 2 || res.PageSize != mem.Size1G {
		t.Fatalf("tail access: %+v", res)
	}
	if _, ok := r.SplitGiant(0, DefaultOpCosts()); !ok {
		t.Fatal("tail giant split failed")
	}
	_, n2m, n1g := r.MappedPages()
	if n2m != 20 || n1g != 0 {
		t.Fatalf("after tail split: %d×2M %d×1G", n2m, n1g)
	}
}
