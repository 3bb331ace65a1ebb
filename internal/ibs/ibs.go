// Package ibs models AMD Instruction-Based Sampling, the hardware
// profiling facility Carrefour and Carrefour-LP depend on (§3.2.1). IBS
// delivers, for a sampled subset of memory operations, the data address,
// the accessing core, and whether the access was serviced from DRAM and
// from which node. The facility's central limitation — too few samples to
// estimate per-page behaviour accurately without unacceptable overhead —
// is faithfully reproduced: samplers record only a configurable fraction
// of accesses and charge an interrupt cost for each sample taken.
//
// Samples are buffered per NUMA node, reproducing the scalability fix the
// paper describes in §4.3 (a single centralized buffer serialized all
// nodes on one lock).
package ibs

import "repro/internal/vm"

// Sample is one IBS record. Policies must base decisions only on the
// fields here — this is the hardware-visible view, as opposed to the
// simulator's ground truth.
//
// The narrow integer fields are deliberate: tens of millions of samples
// flow through per-thread pending buffers, the per-node rings, and
// Drain's merge every run, so the struct is packed to 56 bytes (from a
// naive 80) to cut the copy and buffer-growth traffic. The widths are
// not a practical limit — IBS hardware tags a sample with one core and
// one node, and no machine model approaches 2^31 cores or 256 nodes.
type Sample struct {
	// Page is the backing page of the sampled access at its mapping
	// granularity (IBS reports a virtual address; the kernel resolves it).
	Page vm.PageID
	// Off is the byte offset within the page's region, so policies can
	// re-map a sample onto hypothetical 4 KB sub-pages (the reactive
	// component's what-if splitting estimate needs this).
	Off uint64
	// Weight is the number of real accesses this sample statistically
	// represents (simulation artifact; treated as a sample multiplicity).
	Weight float64
	// Thread is the accessing software thread.
	Thread int32
	// Core is the accessing core.
	Core int32
	// AccessorNode is the node of the accessing core.
	AccessorNode uint8
	// HomeNode is the node that served the data.
	HomeNode uint8
	// DRAM reports whether the access was serviced from memory rather
	// than a cache; Carrefour-LP only considers DRAM-serviced samples so
	// that "decisions are not affected by pages that are easily cached".
	DRAM bool
}

// Local reports whether the sampled access was node-local.
func (s Sample) Local() bool { return s.AccessorNode == s.HomeNode }

// Config tunes the sampler.
type Config struct {
	// Rate is the hardware sampling probability per access; it prices the
	// interrupt overhead and corresponds to an IBS period of 1/Rate ops.
	Rate float64
	// RecordRate is the probability that one of the engine's *priced*
	// accesses is recorded as a sample. The engine prices only a subset
	// of real accesses, so recording at a higher probability than Rate
	// reconstructs the sample volume real hardware would deliver per
	// interval (millions of ops sampled at 1/Rate) without distorting
	// the overhead accounting.
	RecordRate float64
	// CyclesPerSample is the interrupt + logging cost charged to the
	// sampled core.
	CyclesPerSample float64
	// MaxPerNode bounds each per-node buffer; once full, further samples
	// in the interval are dropped (ring-buffer semantics).
	MaxPerNode int
}

// DefaultConfig returns the evaluation calibration: IBS period ≈ 2000 ops
// (the overhead the paper tolerates), with per-interval sample volumes
// large enough to cover 2 MB pages well but 4 KB sub-pages only sparsely —
// the imbalance behind the reactive component's LAR misestimation (§4.1).
func DefaultConfig() Config {
	return Config{Rate: 0.0005, RecordRate: 0.2, CyclesPerSample: 2500, MaxPerNode: 200000}
}

// Sampler collects IBS samples into per-node buffers.
type Sampler struct {
	Cfg     Config
	buffers [][]Sample
	drain   []Sample // reusable merge buffer handed out by Drain
	dropped uint64
	taken   uint64

	// Passive mode: no consumer will ever Drain, so samples are not
	// stored — only the per-node lengths are simulated, so taken/dropped
	// (and therefore the interrupt overhead and Result counters) stay
	// bit-identical to a storing sampler that is never drained.
	passive bool
	virtLen []int
}

// NewSampler builds a sampler for a machine with the given node count.
func NewSampler(cfg Config, nodes int) *Sampler {
	return &Sampler{Cfg: cfg, buffers: make([][]Sample, nodes)}
}

// SetPassive declares that nothing will ever Drain this sampler (the
// policy registered no telemetry consumer): samples are dropped at the
// door while the per-node buffer lengths are tracked virtually, so the
// taken/dropped accounting — the only observable a drain-free run has —
// is exactly that of a storing sampler. Saves the multi-megabyte buffer
// growth that otherwise builds up to MaxPerNode per node. Calling Drain
// afterwards panics: a consumer appearing later means the declaration
// was wrong.
func (s *Sampler) SetPassive() {
	s.passive = true
	if s.virtLen == nil {
		s.virtLen = make([]int, len(s.buffers))
	}
}

// recordPassive simulates one sample arrival in passive mode, mirroring
// the length-capped store.
func (s *Sampler) recordPassive(node int) {
	if s.virtLen[node] >= s.Cfg.MaxPerNode {
		s.dropped++
		return
	}
	s.virtLen[node]++
	s.taken++
}

// RecordScaled stores *sample with its Weight replaced by weight. It
// exists for the engine's merge stage, which flushes thousands of
// per-thread pending samples per epoch scaled by the epoch's progress
// factor: taking a pointer avoids copying each ~100-byte sample twice
// (once into the call, once into the buffer). The caller's sample is
// not modified.
func (s *Sampler) RecordScaled(sample *Sample, weight float64) {
	node := int(sample.AccessorNode)
	if s.passive {
		s.recordPassive(node)
		return
	}
	b := s.buffers[node]
	if len(b) >= s.Cfg.MaxPerNode {
		s.dropped++
		return
	}
	if len(b) == cap(b) {
		b = s.grow(b)
	}
	b = b[:len(b)+1]
	p := &b[len(b)-1]
	*p = *sample
	p.Weight = weight
	s.buffers[node] = b
	s.taken++
}

// grow widens a per-node buffer toward MaxPerNode. Buffers climb toward
// the cap (200 K samples by default) every interval; quadrupling bounded
// by the cap copies far fewer bytes than append's doubling on the way
// up.
func (s *Sampler) grow(b []Sample) []Sample {
	ncap := cap(b) * 4
	if ncap < 1024 {
		ncap = 1024
	}
	if ncap > s.Cfg.MaxPerNode {
		ncap = s.Cfg.MaxPerNode
	}
	nb := make([]Sample, len(b), ncap)
	copy(nb, b)
	return nb
}

// Drain returns all buffered samples merged in node order and clears the
// buffers; called by the policy daemon at the start of each interval.
// The returned slice is owned by the sampler and valid only until the
// next Drain call — daemons consume it within their tick, so the
// multi-megabyte merge buffer is reused instead of reallocated every
// interval.
func (s *Sampler) Drain() []Sample {
	if s.passive {
		panic("ibs: Drain on a passive sampler — a telemetry consumer exists, so SetPassive must not have been called")
	}
	var total int
	for _, b := range s.buffers {
		total += len(b)
	}
	if cap(s.drain) < total {
		s.drain = make([]Sample, 0, total)
	}
	out := s.drain[:0]
	for i, b := range s.buffers {
		out = append(out, b...)
		s.buffers[i] = s.buffers[i][:0]
	}
	s.drain = out
	return out
}

// Stats reports how many samples were taken and dropped since creation.
func (s *Sampler) Stats() (taken, dropped uint64) { return s.taken, s.dropped }
