package thp

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/topo"
	"repro/internal/vm"
)

func setup() (*vm.AddrSpace, *THP) {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.DefaultLatencyParams())
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	t := New(space, true, vm.DefaultOpCosts())
	return space, t
}

func TestAllocSizeFollowsSwitch(t *testing.T) {
	space, thp := setup()
	r := space.Mmap("heap", 8<<20, true)
	if res := r.Access(0, 0, 0); res.PageSize != mem.Size2M {
		t.Fatalf("THP-on fault used %v", res.PageSize)
	}
	thp.SetAllocEnabled(false)
	if res := r.Access(0, 0, uint64(mem.Size2M)); res.PageSize != mem.Size4K {
		t.Fatalf("THP-off fault used %v", res.PageSize)
	}
}

func TestIneligibleRegionNeverHuge(t *testing.T) {
	space, _ := setup()
	r := space.Mmap("file", 4<<20, false)
	if res := r.Access(0, 0, 0); res.PageSize != mem.Size4K {
		t.Fatalf("file-backed fault used %v", res.PageSize)
	}
}

func TestPromotionPass(t *testing.T) {
	space, thp := setup()
	thp.SetAllocEnabled(false) // fault in 4K pages first
	r := space.Mmap("heap", 4<<20, true)
	for i := 0; i < vm.SubsPerChunk; i++ {
		r.Access(0, 0, uint64(i)*uint64(mem.Size4K))
	}
	// Re-enable 2M and run the daemon.
	thp.SetAllocEnabled(true)
	cyc := thp.RunPromotionPass()
	if cyc <= 0 {
		t.Fatal("promotion pass should cost cycles")
	}
	if thp.Promoted() != 1 {
		t.Fatalf("promoted = %d, want 1", thp.Promoted())
	}
	if info := r.ChunkInfo(0); info.State != vm.Mapped2M {
		t.Fatalf("chunk state = %v", info.State)
	}
}

func TestPromotionRespectsMinSubs(t *testing.T) {
	space, thp := setup()
	thp.SetAllocEnabled(false)
	r := space.Mmap("heap", 4<<20, true)
	for i := 0; i < 100; i++ { // below the 448 threshold
		r.Access(0, 0, uint64(i)*uint64(mem.Size4K))
	}
	thp.SetAllocEnabled(true)
	thp.RunPromotionPass()
	if thp.Promoted() != 0 {
		t.Fatal("sparse chunk should not be promoted")
	}
}

func TestPromotionDisabled(t *testing.T) {
	space, thp := setup()
	thp.SetAllocEnabled(false)
	r := space.Mmap("heap", 4<<20, true)
	for i := 0; i < vm.SubsPerChunk; i++ {
		r.Access(0, 0, uint64(i)*uint64(mem.Size4K))
	}
	thp.SetAllocEnabled(true)
	thp.SetPromoteEnabled(false)
	if cyc := thp.RunPromotionPass(); cyc != 0 {
		t.Fatal("disabled daemon should do nothing")
	}
	if thp.Promoted() != 0 {
		t.Fatal("disabled daemon promoted")
	}
}

func TestPromotionQuantum(t *testing.T) {
	space, thp := setup()
	thp.SetAllocEnabled(false)
	thp.maxPerPass = 2
	r := space.Mmap("heap", 16<<20, true) // 8 chunks
	for c := 0; c < 8; c++ {
		for i := 0; i < vm.SubsPerChunk; i++ {
			r.Access(0, 0, uint64(c)*uint64(mem.Size2M)+uint64(i)*uint64(mem.Size4K))
		}
	}
	thp.SetAllocEnabled(true)
	thp.RunPromotionPass()
	if thp.Promoted() != 2 {
		t.Fatalf("first pass promoted %d, want 2", thp.Promoted())
	}
	// Cursor resumes: subsequent passes finish the region.
	for i := 0; i < 10; i++ {
		thp.RunPromotionPass()
	}
	if thp.Promoted() != 8 {
		t.Fatalf("total promoted = %d, want 8", thp.Promoted())
	}
}

func TestPromotionTargetsDominantNode(t *testing.T) {
	space, thp := setup()
	thp.SetAllocEnabled(false)
	thp.minSubs = 256
	r := space.Mmap("heap", 4<<20, true)
	// 300 subs faulted from node 2 (core 12), 100 from node 0.
	for i := 0; i < 300; i++ {
		r.Access(12, 12, uint64(i)*uint64(mem.Size4K))
	}
	for i := 300; i < 400; i++ {
		r.Access(0, 0, uint64(i)*uint64(mem.Size4K))
	}
	thp.SetAllocEnabled(true)
	thp.RunPromotionPass()
	if info := r.ChunkInfo(0); info.State != vm.Mapped2M || info.Node != 2 {
		t.Fatalf("promoted chunk: %+v, want 2M on node 2", info)
	}
}
