package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ibs"
)

// hashFmt is Config.Hash's serialization written with fmt, the formula
// every existing content address was computed with.
func hashFmt(c Config) uint64 {
	ib := ibs.DefaultConfig()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%g|%d|%d|%g|%d|%g|%g|%d|%g|%g|%g|%d",
		c.Mode, epochSeconds, steadySamples, analyticCensus,
		allocRoundCycles, maxAllocPerEpoch, maxSimSeconds,
		c.WorkScale, c.Seed,
		ib.Rate, ib.RecordRate, ib.CyclesPerSample, ib.MaxPerNode)
	return h.Sum64()
}

// TestHashMatchesFmt is the property behind every cache key: Hash
// equals the fmt formula for any Mode, WorkScale and Seed. The fixed
// scales sit on and beside the points where %g switches between plain
// and exponent form (1e-5 below, 1e6 and 1e21 above), at 0, and on the
// signed and non-finite values (negative, -0, NaN, ±Inf).
func TestHashMatchesFmt(t *testing.T) {
	fixed := []float64{0, 0.02, 0.05, 0.1, 1, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Copysign(0, -1), -1, -1e-7, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, edge := range []float64{1e-5, 1e-4, 1e6, 1e21} {
		fixed = append(fixed, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	modes := []Mode{ModeSampled, ModeAnalytic, 2, 255}
	seeds := []uint64{0, 1, 9001, math.MaxUint64}
	check := func(c Config) {
		if got, want := c.Hash(), hashFmt(c); got != want {
			t.Fatalf("Hash(%+v) = %#x, fmt formula %#x", c, got, want)
		}
	}
	for _, w := range fixed {
		for _, m := range modes {
			for _, s := range seeds {
				check(Config{Mode: m, WorkScale: w, Seed: s})
			}
		}
	}
	for i := 0; i < 20000; i++ {
		var w float64
		switch i % 3 {
		case 0: // decimal-looking scales over 60 decades
			w = float64(rng.Intn(100000)) * math.Pow(10, float64(rng.Intn(61)-35))
		case 1: // uniform in [0, 2)
			w = 2 * rng.Float64()
		default: // any bit pattern, NaNs and negatives included
			w = math.Float64frombits(rng.Uint64())
		}
		check(Config{Mode: Mode(rng.Intn(256)), WorkScale: w, Seed: rng.Uint64() >> uint(rng.Intn(64))})
	}
}
