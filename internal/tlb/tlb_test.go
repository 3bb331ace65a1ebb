package tlb

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func model() *Model { return NewModel() }

func TestWalkLevels(t *testing.T) {
	if WalkLevels(mem.Size4K) != 4 || WalkLevels(mem.Size2M) != 3 || WalkLevels(mem.Size1G) != 2 {
		t.Fatal("walk levels wrong")
	}
}

func TestWalkLevelsPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WalkLevels(mem.PageSize(999))
}

func TestEmptySegmentsAllHit(t *testing.T) {
	a := model().Assess(nil)
	if a.L1Hit != 1 || a.Miss != 0 {
		t.Fatalf("empty assessment = %+v", a)
	}
}

func TestTinyWorkingSetHitsL1(t *testing.T) {
	a := model().Assess([]Segment{{Weight: 1, Pages: 10, Size: mem.Size4K}})
	if a.L1Hit < 0.999 {
		t.Fatalf("10-page working set L1 hit = %v", a.L1Hit)
	}
}

func TestMediumWorkingSetHitsL2(t *testing.T) {
	// 500 4K pages: 48 in L1, rest covered by the 1024-entry L2 class.
	a := model().Assess([]Segment{{Weight: 1, Pages: 500, Size: mem.Size4K}})
	if a.Miss > 1e-9 {
		t.Fatalf("500-page working set should not miss, got %v", a.Miss)
	}
	if a.L2Hit < 0.8 {
		t.Fatalf("expected mostly L2 hits, got %v", a.L2Hit)
	}
}

func TestHugeWorkingSetMisses(t *testing.T) {
	// 1 GB random over 4K pages = 262144 pages ≫ 1072 entries.
	a := model().Assess([]Segment{{Weight: 1, Pages: 262144, Size: mem.Size4K}})
	if a.Miss < 0.99 {
		t.Fatalf("huge working set miss = %v, want ≈1", a.Miss)
	}
	if a.WalkCycles <= 0 {
		t.Fatal("walk cycles must be positive when missing")
	}
}

func TestLargePagesReduceMisses(t *testing.T) {
	// Same 1 GB footprint: 262144×4K pages vs 512×2M pages.
	small := model().Assess([]Segment{{Weight: 1, Pages: 262144, Size: mem.Size4K}})
	large := model().Assess([]Segment{{Weight: 1, Pages: 512, Size: mem.Size2M}})
	if large.Miss >= small.Miss {
		t.Fatalf("2M pages should reduce miss rate: 4K=%v 2M=%v", small.Miss, large.Miss)
	}
	// 512 2M pages: 48 L1 + 128 L2 entries cover 176/512 ≈ 34%; misses
	// remain but walks are cheap (tiny page table).
	if large.WalkL2Misses > 0.2 {
		t.Fatalf("2M walks should rarely miss L2: %v", large.WalkL2Misses)
	}
	if small.WalkL2Misses < 0.5 {
		t.Fatalf("4K walks over 1 GB should often miss L2: %v", small.WalkL2Misses)
	}
}

func TestWalkCostLargePagesCheaper(t *testing.T) {
	small := model().Assess([]Segment{{Weight: 1, Pages: 1 << 20, Size: mem.Size4K}})
	large := model().Assess([]Segment{{Weight: 1, Pages: 2048, Size: mem.Size2M}})
	if large.WalkCycles >= small.WalkCycles {
		t.Fatalf("2M walk cost %v should be below 4K %v", large.WalkCycles, small.WalkCycles)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	if err := quick.Check(func(p1, p2, w1raw, w2raw uint16) bool {
		w1 := float64(w1raw%100) / 100
		w2 := (1 - w1) * float64(w2raw%100) / 100
		a := model().Assess([]Segment{
			{Weight: w1, Pages: float64(p1) + 1, Size: mem.Size4K},
			{Weight: w2, Pages: float64(p2) + 1, Size: mem.Size2M},
		})
		sum := a.L1Hit + a.L2Hit + a.Miss
		return math.Abs(sum-1) < 1e-6 && a.L1Hit >= 0 && a.L2Hit >= 0 && a.Miss >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissMonotoneInPages(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		lo, hi := float64(a%1000000)+1, float64(b%1000000)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		ma := model().Assess([]Segment{{Weight: 1, Pages: lo, Size: mem.Size4K}})
		mb := model().Assess([]Segment{{Weight: 1, Pages: hi, Size: mem.Size4K}})
		return ma.Miss <= mb.Miss+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotSegmentPrioritized(t *testing.T) {
	// A hot small segment plus a cold huge one: the hot one should be
	// TLB-resident, so the miss probability should be ≈ the cold weight.
	a := model().Assess([]Segment{
		{Weight: 0.9, Pages: 20, Size: mem.Size4K},
		{Weight: 0.1, Pages: 1 << 22, Size: mem.Size4K},
	})
	if a.Miss > 0.11 {
		t.Fatalf("miss = %v, want ≈0.1 (cold segment only)", a.Miss)
	}
	if a.L1Hit < 0.85 {
		t.Fatalf("hot segment should hit L1: %v", a.L1Hit)
	}
}

func TestCostPerAccess(t *testing.T) {
	a := Assessment{L2Hit: 0.5, Miss: 0.1, WalkCycles: 100}
	want := 0.5*L2HitCycles + 0.1*100
	if got := a.CostPerAccess(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CostPerAccess = %v, want %v", got, want)
	}
}

func TestPTFootprint(t *testing.T) {
	a := model().Assess([]Segment{{Weight: 1, Pages: 1000, Size: mem.Size4K}})
	if a.PTFootprintBytes != 8000 {
		t.Fatalf("PT footprint = %d, want 8000", a.PTFootprintBytes)
	}
}

func TestZeroWeightSegmentsIgnored(t *testing.T) {
	a := model().Assess([]Segment{
		{Weight: 0, Pages: 1 << 30, Size: mem.Size4K},
		{Weight: 1, Pages: 10, Size: mem.Size4K},
	})
	if a.Miss > 1e-9 {
		t.Fatalf("zero-weight segment influenced the result: %+v", a)
	}
}

func TestRemoteWalkPricing(t *testing.T) {
	// A big cold 4K footprint: walks frequently fetch leaf PTEs from
	// DRAM, so remote page tables must add measurable cycles per walk.
	a := model().Assess([]Segment{{Weight: 1, Pages: 1 << 22, Size: mem.Size4K}})
	if a.WalkDRAMFetches() <= 0 {
		t.Fatalf("cold walks should reach DRAM: %+v", a)
	}
	const fabric = 140.0
	if got, want := a.RemoteWalkCycles(fabric), a.WalkL2Misses*fabric; got != want {
		t.Fatalf("RemoteWalkCycles = %v, want %v", got, want)
	}
	// Local (or replicated) page tables pay nothing.
	if a.RemoteWalkCycles(0) != 0 {
		t.Fatal("local walk paid a fabric surcharge")
	}
}
