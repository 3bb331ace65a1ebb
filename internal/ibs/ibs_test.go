package ibs

import "testing"

func sample(node int, dram bool) Sample {
	return Sample{AccessorNode: 0, HomeNode: 1, DRAM: dram, Weight: 1}
}

func TestBufferCap(t *testing.T) {
	s := NewSampler(Config{Rate: 1, CyclesPerSample: 1, MaxPerNode: 5}, 2)
	for i := 0; i < 20; i++ {
		sm := sample(0, true)
		s.RecordScaled(&sm, 1)
	}
	if got := len(s.Drain()); got != 5 {
		t.Fatalf("buffered %d, want cap 5", got)
	}
	_, dropped := s.Stats()
	if dropped != 15 {
		t.Fatalf("dropped = %d, want 15", dropped)
	}
}

func TestDrainClearsAndMergesPerNodeBuffers(t *testing.T) {
	s := NewSampler(DefaultConfig(), 4)
	a := Sample{AccessorNode: 2, HomeNode: 2, DRAM: true, Weight: 1}
	b := Sample{AccessorNode: 0, HomeNode: 1, DRAM: true, Weight: 1}
	s.RecordScaled(&a, 3)
	s.RecordScaled(&b, 5)
	got := s.Drain()
	if len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	// Node order: node 0's buffer first, each sample carrying the weight
	// it was recorded with while the caller's copy stays untouched.
	if got[0].AccessorNode != 0 || got[1].AccessorNode != 2 {
		t.Fatalf("drain order wrong: %+v", got)
	}
	if got[0].Weight != 5 || got[1].Weight != 3 || a.Weight != 1 || b.Weight != 1 {
		t.Fatalf("weights wrong: drained %v, %v; caller's %v, %v", got[0].Weight, got[1].Weight, a.Weight, b.Weight)
	}
	if len(s.Drain()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestLocal(t *testing.T) {
	if (Sample{AccessorNode: 1, HomeNode: 1}).Local() != true {
		t.Fatal("same-node sample should be local")
	}
	if (Sample{AccessorNode: 1, HomeNode: 2}).Local() != false {
		t.Fatal("cross-node sample should be remote")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	// The hardware rate prices overhead (IBS period ≈ 1/Rate ops); the
	// record rate reconstructs realistic per-interval sample volumes.
	if cfg.Rate <= 0 || cfg.Rate > 0.01 {
		t.Fatalf("hardware rate %v implausible", cfg.Rate)
	}
	if cfg.RecordRate <= cfg.Rate {
		t.Fatalf("record rate %v must exceed the hardware rate %v", cfg.RecordRate, cfg.Rate)
	}
	// Overhead per access stays within the paper's tolerated ~1-3%.
	perAccess := cfg.Rate * cfg.CyclesPerSample
	if perAccess > 3 {
		t.Fatalf("IBS overhead %v cycles/access too high", perAccess)
	}
}
