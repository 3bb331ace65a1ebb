package carrefour

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/vm"
)

// referenceGroup is the specification Group must match bit for bit: a
// map keyed by page, a comparison sort on (region ID, chunk, sub), and
// per-group accumulation in sample order.
func referenceGroup(samples []ibs.Sample, nodes int) []PageGroup {
	idx := map[vm.PageID]int{}
	var groups []PageGroup
	for _, s := range samples {
		if !s.DRAM {
			continue
		}
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		gi, ok := idx[s.Page]
		if !ok {
			gi = len(groups)
			idx[s.Page] = gi
			groups = append(groups, PageGroup{Page: s.Page, NodeWeight: make([]float64, nodes)})
		}
		g := &groups[gi]
		g.Count++
		g.Weight += w
		g.NodeWeight[s.AccessorNode] += w
		g.NodeMask |= 1 << s.AccessorNode
		g.ThreadMask |= 1 << uint(s.Thread%64)
		if s.Local() {
			g.LocalWeight += w
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].Page, groups[j].Page
		if a.Region.ID != b.Region.ID {
			return a.Region.ID < b.Region.ID
		}
		if a.Chunk != b.Chunk {
			return a.Chunk < b.Chunk
		}
		return a.Sub < b.Sub
	})
	return groups
}

// sameGroups fails the test unless got equals want field by field, with
// floats compared bitwise.
func sameGroups(t *testing.T, got, want []PageGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Page != w.Page || g.Count != w.Count || g.NodeMask != w.NodeMask || g.ThreadMask != w.ThreadMask ||
			!eq(g.Weight, w.Weight) || !eq(g.LocalWeight, w.LocalWeight) || len(g.NodeWeight) != len(w.NodeWeight) {
			t.Fatalf("group %d: got %+v, want %+v", i, *g, *w)
		}
		for n := range w.NodeWeight {
			if !eq(g.NodeWeight[n], w.NodeWeight[n]) {
				t.Fatalf("group %d node %d: weight %v, want %v", i, n, g.NodeWeight[n], w.NodeWeight[n])
			}
			if (g.NodeWeight[n] > 0) != (g.NodeMask&(1<<n) != 0) {
				t.Fatalf("group %d node %d: mask disagrees with weight %v", i, n, g.NodeWeight[n])
			}
		}
	}
}

// fuzzRegions maps three regions, the first one 1 GB-capable, so fuzzed
// samples can name 4 KB, 2 MB and 1 GB identities in several regions.
func fuzzRegions() []*vm.Region {
	m := topo.MachineB()
	space := vm.NewAddrSpace(m, mem.NewSystem(m, mem.LatencyParamsFor(m.Name)), vm.DefaultFaultParams())
	return []*vm.Region{
		space.Mmap("giant", 2<<30, true),
		space.Mmap("small", 16<<20, true),
		space.Mmap("file", 32<<20, false),
	}
}

// decodeSamples turns fuzz bytes into samples, 5 bytes each. Chunks are
// drawn from a small set so identities collide; weights include zero,
// negative, extreme and inexact values, so that summing in another order
// changes the bits; threads range over [-32, 224).
func decodeSamples(data []byte, regions []*vm.Region, nodes int) []ibs.Sample {
	weights := [8]float64{1, 0, -1, 0.1, 0.2, 0.3, 1e16, 1e300}
	chunks := [8]int{0, 1, 2, 3, 5, 7, 512, 513}
	var out []ibs.Sample
	for ; len(data) >= 5; data = data[5:] {
		b0, b1, b2, b3, b4 := data[0], data[1], data[2], data[3], data[4]
		r := regions[int(b0>>1&3)%len(regions)]
		chunk := chunks[b1&7] % r.NumChunks()
		sub := -1
		switch b1 >> 3 & 3 {
		case 1, 2: // a 4 KB page of the chunk
			sub = int(b2) | int(b1>>5&1)<<8
		case 3: // the 1 GB page's identity: its head chunk
			chunk -= chunk % vm.ChunksPerGiant
		}
		out = append(out, ibs.Sample{
			Page:         vm.PageID{Region: r, Chunk: chunk, Sub: sub},
			Weight:       weights[b0>>3&7],
			Thread:       int32(b3) - 32,
			AccessorNode: uint8(int(b4&15) % nodes),
			HomeNode:     uint8(int(b4>>4) % nodes),
			DRAM:         b0&1 == 0 || b0>>6 == 3,
		})
	}
	return out
}

// FuzzGroupSamples compares Group, on a scratch dirtied by a previous
// call, against the reference grouping.
func FuzzGroupSamples(f *testing.F) {
	regions := fuzzRegions()
	f.Add(byte(8), []byte{})
	f.Add(byte(0), []byte{24, 0, 0, 32, 0, 32, 0, 0, 32, 0, 40, 0, 0, 32, 0}) // 0.1, 0.2, 0.3 on one page
	f.Add(byte(4), []byte{0, 0, 0, 0, 0x10, 0, 8, 7, 70, 0x21, 0, 24, 7, 90, 0x33, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add(byte(8), []byte{8, 6, 0, 200, 0x77, 16, 14, 9, 1, 0x65, 0, 0x2e, 255, 64, 0x12, 24, 3, 0, 0, 0x43, 2, 5, 0, 100, 0x21, 4, 1, 0, 31, 0x10})
	f.Fuzz(func(t *testing.T, nodes byte, data []byte) {
		n := 1 + int(nodes)%8
		samples := decodeSamples(data, regions, n)
		var gs GroupScratch
		sameGroups(t, gs.Group(samples[len(samples)/2:], n), referenceGroup(samples[len(samples)/2:], n))
		sameGroups(t, gs.Group(samples, n), referenceGroup(samples, n))
	})
}

// benchSamples draws count samples over about pages pages of 8 nodes,
// two thirds of them 2 MB identities and the rest 4 KB pages of split
// chunks, the mix a Carrefour-LP interval sees.
func benchSamples(r *vm.Region, count, pages int) []ibs.Sample {
	rng := stats.NewRng(1)
	chunks := pages * 2 / 3
	samples := make([]ibs.Sample, count)
	for i := range samples {
		p := rng.Intn(pages)
		id := vm.PageID{Region: r, Chunk: p % r.NumChunks(), Sub: -1}
		if p >= chunks {
			id.Chunk = r.NumChunks() - 1 - (p-chunks)/512%(r.NumChunks()/2)
			id.Sub = (p - chunks) % 512
		}
		samples[i] = ibs.Sample{
			Page: id, Weight: 1 + float64(rng.Intn(4)),
			Thread: int32(rng.Intn(48)), AccessorNode: uint8(rng.Intn(8)), HomeNode: uint8(rng.Intn(8)),
			DRAM: rng.Intn(8) != 0,
		}
	}
	return samples
}

// TestGroupZeroAllocWarm pins Group's steady state: once the scratch
// has seen an interval, grouping the next one allocates nothing.
func TestGroupZeroAllocWarm(t *testing.T) {
	regions := fuzzRegions()
	samples := benchSamples(regions[0], 20000, 5000)
	var gs GroupScratch
	gs.Group(samples, 8)
	if allocs := testing.AllocsPerRun(10, func() { gs.Group(samples, 8) }); allocs != 0 {
		t.Fatalf("warm Group allocates %.0f times per call", allocs)
	}
}
