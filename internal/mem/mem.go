// Package mem models the physical memory system: per-node capacity
// accounting for 4 KB / 2 MB / 1 GB frames and, critically for the paper,
// per-node memory-controller load. Requests to an overloaded controller see
// latencies of up to ~1000 cycles versus ~200 cycles uncontended (§1), and
// the imbalance of the per-controller request rates is the paper's central
// NUMA-health metric.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/topo"
)

// PageSize is a supported translation granularity in bytes.
type PageSize uint64

// The three page sizes the paper considers: regular x86 4 KB pages, 2 MB
// large pages (THP), and 1 GB very large pages (§4.4).
const (
	Size4K PageSize = 4 << 10
	Size2M PageSize = 2 << 20
	Size1G PageSize = 1 << 30
)

// String renders the conventional name of the page size.
func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4K"
	case Size2M:
		return "2M"
	case Size1G:
		return "1G"
	default:
		return fmt.Sprintf("PageSize(%d)", uint64(s))
	}
}

// Valid reports whether s is one of the supported sizes.
func (s PageSize) Valid() bool {
	return s == Size4K || s == Size2M || s == Size1G
}

// ErrOutOfMemory is returned when a node's free bytes cannot cover an
// allocation at all.
var ErrOutOfMemory = errors.New("mem: node out of memory")

// ErrFragmented is returned when a node has enough free bytes but no
// contiguous free block of the requested size — the buddy-allocator
// failure mode that makes huge-page allocation fail under churn even on
// a half-empty node.
var ErrFragmented = errors.New("mem: node free memory too fragmented")

// ErrOverFree is returned by Free when node n has no live allocation of
// the requested size. Under event timelines a workload-spec bug (e.g. a
// timeline freeing the same region twice) can reach this path, so it is
// a typed error rather than a panic; Spec.Validate rejects such
// timelines before a run starts.
var ErrOverFree = errors.New("mem: free without matching allocation")

// LatencyParams configures the DRAM latency/contention model.
type LatencyParams struct {
	// FixedCycles is the uncontended non-queuing portion of a DRAM access
	// (row activation, bus transfer).
	FixedCycles float64
	// QueueCycles is the uncontended controller-queue portion; the
	// contention multiplier applies to this term.
	QueueCycles float64
	// ServiceReqPerCycle is the controller's peak service rate; epoch
	// utilization is requests / (cycles × ServiceReqPerCycle).
	ServiceReqPerCycle float64
	// MaxFactor caps the contention multiplier so an overloaded
	// controller saturates near the paper's ~1000-cycle figure instead of
	// diverging.
	MaxFactor float64
}

// DefaultLatencyParams returns the calibration used for both machines:
// ~200 cycles uncontended and ~950 cycles fully congested, matching the
// figures the paper cites from the Carrefour study.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		FixedCycles:        50,
		QueueCycles:        150,
		ServiceReqPerCycle: 0.08,
		MaxFactor:          6.0,
	}
}

// LatencyParamsFor returns the per-machine calibration: machine A's
// Istanbul-generation controllers have a little more headroom per core
// cycle (fewer, slower cores per node) than machine B's Interlagos nodes.
func LatencyParamsFor(machineName string) LatencyParams {
	p := DefaultLatencyParams()
	switch machineName {
	case "A":
		p.ServiceReqPerCycle = 0.095
	case "B":
		p.ServiceReqPerCycle = 0.075
	}
	return p
}

// System tracks physical memory occupancy and controller load for one
// machine. It is not safe for concurrent use; the simulation engine merges
// per-thread request batches deterministically before touching it.
type System struct {
	Machine *topo.Machine
	Params  LatencyParams

	nodes []*buddyNode // per-node buddy free lists (see buddy.go)
	rng   uint64       // LCG state for Free's live-block pick

	// victims stages FreeRun's batch of picked frames. It lives here,
	// not on FreeRun's stack, so a call does not zero 1 KiB first:
	// event-timeline teardowns call FreeRun once per same-node run.
	victims [256]uint32

	epochReq []float64 // requests recorded this epoch per node
	totalReq []float64 // requests recorded over the whole run per node
	latency  []float64 // lagged per-node access latency for the current epoch
	util     []float64 // lagged per-node utilization
}

// NewSystem builds an empty memory system for machine m.
func NewSystem(m *topo.Machine, p LatencyParams) *System {
	s := &System{
		Machine:  m,
		Params:   p,
		nodes:    make([]*buddyNode, m.Nodes),
		rng:      0x9E3779B97F4A7C15,
		epochReq: make([]float64, m.Nodes),
		totalReq: make([]float64, m.Nodes),
		latency:  make([]float64, m.Nodes),
		util:     make([]float64, m.Nodes),
	}
	for i := range s.nodes {
		s.nodes[i] = newBuddyNode(m.DRAMPerNode)
	}
	base := p.FixedCycles + p.QueueCycles
	for i := range s.latency {
		s.latency[i] = base
	}
	return s
}

// Allocate reserves one frame of size bytes on node n, failing with
// ErrOutOfMemory when the node's DRAM is exhausted and with ErrFragmented
// when free bytes suffice but no contiguous block of the requested order
// exists. Allocation never falls back to another node or a smaller page
// size here; fallback is an OS policy decision made by the caller.
func (s *System) Allocate(n topo.NodeID, size PageSize) error {
	if !size.Valid() {
		return fmt.Errorf("mem: invalid page size %d", uint64(size))
	}
	b := s.nodes[n]
	if uint64(size) > b.freeBytes {
		return ErrOutOfMemory
	}
	o := orderOf(size)
	frame, ok := b.alloc(o)
	if !ok {
		return ErrFragmented
	}
	c := sizeClass(size)
	b.live[c] = append(b.live[c], uint32(frame>>uint(o)))
	return nil
}

// AllocateRun reserves count frames of size bytes on node n, exactly as
// count sequential Allocate calls would — the same frames, registered
// live in the same order, with the same free lists and free bytes
// left behind — stopping at the first frame Allocate would fail on and
// returning how many frames were reserved. The batched allocation-fault
// path (vm.ApplyAllocFault4KRun) commits a whole span of first-touches
// through one call here, and vm.Region.SplitChunk re-allocates a split
// 2 MB page's 512 frames through one. The buddy serves the run a bitmap
// word or a whole carved block at a time instead of one split-and-take
// chain per frame (buddyNode.allocRun), which is why the result is
// still the per-call sequence's byte for byte.
func (s *System) AllocateRun(n topo.NodeID, size PageSize, count int) int {
	if !size.Valid() {
		return 0
	}
	return s.nodes[n].allocRun(orderOf(size), sizeClass(size), count)
}

// Free releases one live frame of size bytes on node n, coalescing it
// with free buddies. The caller identifies frames by (node, size) only,
// so Free picks the released block pseudo-randomly among the node's live
// blocks of that size, modeling uncorrelated allocation lifetimes (the
// source of physical fragmentation). Freeing with no live block of the
// size returns ErrOverFree.
func (s *System) Free(n topo.NodeID, size PageSize) error {
	if !size.Valid() {
		return fmt.Errorf("mem: invalid page size %d", uint64(size))
	}
	b := s.nodes[n]
	c := sizeClass(size)
	l := b.live[c]
	if len(l) == 0 {
		return fmt.Errorf("%w: no live %s frame on node %d", ErrOverFree, size, n)
	}
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	i := int((s.rng >> 33) % uint64(len(l)))
	idx := uint64(l[i])
	l[i] = l[len(l)-1]
	b.live[c] = l[:len(l)-1]
	b.release(orderOf(size), idx<<uint(orderOf(size)))
	return nil
}

// FreeRun releases count live frames of size bytes on node n, exactly
// as count sequential Free calls would: the same LCG draws pick the
// same victims from the same evolving live list, and each frame
// coalesces before the next draw. Replaying the sequence in one tight
// loop matters because the random pick makes every iteration a cache
// miss into a multi-megabyte live list — hoisted locals and a call-free
// loop let those misses overlap instead of serializing through the call
// boundary (event-timeline unmaps free hundreds of thousands of frames
// per event). Stops at the first over-free, returning ErrOverFree with
// the allocator state exactly as the failing per-call sequence leaves
// it.
func (s *System) FreeRun(n topo.NodeID, size PageSize, count int) error {
	if !size.Valid() {
		return fmt.Errorf("mem: invalid page size %d", uint64(size))
	}
	b := s.nodes[n]
	c := sizeClass(size)
	o := orderOf(size)
	rng := s.rng
	l := b.live[c]
	// Victim extraction (random live-list swaps) and block release
	// (buddy-bitmap coalescing) touch disjoint state, so the interleaved
	// per-call sequence can be split into two tight loops per batch with
	// bit-identical results. Each loop is then a run of independent
	// random-address accesses — the extraction loop's next address
	// depends only on the LCG and the release loop's only on the staged
	// victim — so the cache misses overlap instead of serializing
	// extract→release→extract.
	victims := &s.victims
	for count > 0 {
		batch := count
		if batch > len(victims) {
			batch = len(victims)
		}
		if batch > len(l) {
			batch = len(l)
		}
		for k := 0; k < batch; k++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			i := int((rng >> 33) % uint64(len(l)))
			victims[k] = l[i]
			l[i] = l[len(l)-1]
			l = l[:len(l)-1]
		}
		for k := 0; k < batch; k++ {
			b.release(o, uint64(victims[k])<<uint(o))
		}
		count -= batch
		if count > 0 && len(l) == 0 {
			s.rng = rng
			b.live[c] = l
			return fmt.Errorf("%w: no live %s frame on node %d", ErrOverFree, size, n)
		}
	}
	s.rng = rng
	b.live[c] = l
	return nil
}

// Allocated reports the bytes in use on node n.
func (s *System) Allocated(n topo.NodeID) uint64 {
	b := s.nodes[n]
	return b.frames<<frameShift - b.freeBytes
}

// Free bytes remaining on node n (contiguity not implied; see
// FreeContiguous).
func (s *System) FreeBytes(n topo.NodeID) uint64 {
	return s.nodes[n].freeBytes
}

// FreeContiguous reports whether node n could currently satisfy one
// allocation of the given size — i.e. whether a free block of at least
// that order exists. FreeBytes >= size with FreeContiguous false is the
// fragmentation signature.
func (s *System) FreeContiguous(n topo.NodeID, size PageSize) bool {
	if !size.Valid() {
		return false
	}
	return s.nodes[n].contiguousFree(orderOf(size))
}

// Record charges count DRAM requests to node n's controller in the current
// epoch. The simulation engine calls this with sampled request counts
// scaled to the thread's actual progress.
func (s *System) Record(n topo.NodeID, count float64) {
	s.epochReq[n] += count
	s.totalReq[n] += count
}

// RecordN charges count requests to node n's controller times times in a
// row — the batched equivalent of times Record calls. The accumulators
// advance by the same sequence of float additions as the per-call path,
// so the epoch totals stay byte-identical; hoisting them into locals just
// keeps the loop in registers.
func (s *System) RecordN(n topo.NodeID, count float64, times int) {
	er, tr := s.epochReq[n], s.totalReq[n]
	for i := 0; i < times; i++ {
		er += count
		tr += count
	}
	s.epochReq[n], s.totalReq[n] = er, tr
}

// Latency returns the cycles a DRAM request to node n costs in the current
// epoch. The value is lagged: it was derived from the previous epoch's
// request rates by EndEpoch, modeling the feedback delay of real queueing.
func (s *System) Latency(n topo.NodeID) float64 { return s.latency[n] }

// Utilization returns node n's lagged controller utilization in [0, ~1+].
func (s *System) Utilization(n topo.NodeID) float64 { return s.util[n] }

// FillLatencies writes every node's current (lagged) latency into dst,
// which must have length Machine.Nodes. The engine snapshots the values
// once per epoch into a flat table instead of paying an interface-free
// but still call-heavy Latency lookup per priced DRAM access.
func (s *System) FillLatencies(dst []float64) {
	copy(dst, s.latency)
}

// EndEpoch folds the epoch's request counts into the latency model for the
// next epoch and resets the per-epoch counters. epochCycles is the length
// of the finished epoch in core cycles.
func (s *System) EndEpoch(epochCycles float64) {
	capacity := epochCycles * s.Params.ServiceReqPerCycle
	for n := range s.epochReq {
		u := 0.0
		if capacity > 0 {
			u = s.epochReq[n] / capacity
		}
		s.util[n] = u
		target := s.Params.FixedCycles + s.Params.QueueCycles*s.contentionFactor(u)
		// Beyond saturation the controller is throughput-bound: latency
		// grows with the backlog ratio past the normal-case cap. This is
		// the regime behind the ~4× collapse with 1 GB pages (§4.4).
		if u > 1 {
			target *= u
		}
		// EWMA damping stabilizes the lagged fixed point.
		s.latency[n] = 0.5*s.latency[n] + 0.5*target
		s.epochReq[n] = 0
	}
}

// contentionFactor maps utilization to a queueing-delay multiplier: 1 when
// idle, super-linear as the controller saturates, capped at MaxFactor.
func (s *System) contentionFactor(u float64) float64 {
	if u <= 0 {
		return 1
	}
	eff := u
	if eff > 0.97 {
		eff = 0.97
	}
	f := 1 + 2.5*eff*eff/(1-eff)
	if f > s.Params.MaxFactor {
		f = s.Params.MaxFactor
	}
	return f
}

// EpochRequests returns a copy of this epoch's per-node request counts
// (before EndEpoch resets them).
func (s *System) EpochRequests() []float64 {
	out := make([]float64, len(s.epochReq))
	copy(out, s.epochReq)
	return out
}

// TotalRequests returns a copy of the cumulative per-node request counts.
func (s *System) TotalRequests() []float64 {
	out := make([]float64, len(s.totalReq))
	copy(out, s.totalReq)
	return out
}

// ImbalancePct is the paper's traffic-imbalance metric computed over the
// cumulative per-controller request counts: the standard deviation of the
// rates as a percent of the mean (§2.1).
func (s *System) ImbalancePct() float64 {
	return stats.ImbalancePct(s.totalReq)
}

// ResetCounters clears the cumulative request statistics, used when a
// measurement interval should exclude warmup.
func (s *System) ResetCounters() {
	for i := range s.totalReq {
		s.totalReq[i] = 0
		s.epochReq[i] = 0
	}
}
