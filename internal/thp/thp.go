// Package thp implements Transparent Huge Pages as the paper uses them
// (§2.1): allocations of anonymous memory are backed by 2 MB pages
// whenever 2 MB allocation is enabled, and a khugepaged-style daemon
// periodically scans for chunks whose 4 KB pages can be consolidated into
// a 2 MB page ("promotion", checked every 10 ms in the paper's setup).
//
// The two switches — 2 MB allocation and 2 MB promotion — are exactly the
// knobs Carrefour-LP's Algorithm 1 toggles (lines 4-9 and 15-18). Both
// start from New's one start switch; the khugepaged calibration is a
// pair of package constants.
package thp

import (
	"repro/internal/mem"
	"repro/internal/vm"
)

// The khugepaged calibration matching the paper's setup.
const (
	// promoteMinSubs is the number of mapped 4 KB pages a chunk needs
	// before promotion is attempted: khugepaged fills up to 64 unmapped
	// holes out of 512.
	promoteMinSubs int = 448
	// promoteMaxPerPass bounds the chunks promoted per daemon pass, like
	// khugepaged's scan quantum.
	promoteMaxPerPass int = 5
)

// THP drives huge-page backing for one address space.
type THP struct {
	Space *vm.AddrSpace
	Costs vm.OpCosts

	// alloc backs anonymous-memory faults with 2 MB pages; promote lets
	// the promotion daemon consolidate 4 KB pages.
	alloc, promote bool
	// The promotion calibration, filled from the constants above; fields
	// so that in-package tests can lower them.
	minSubs, maxPerPass int

	// scan cursor so passes resume where they left off, like khugepaged.
	cursorRegion int
	cursorChunk  int

	promoted uint64

	// Dirty gate: after a full scan finds zero promotion candidates, the
	// address-space fingerprint it ran against is recorded here, and
	// PendingWork reports false until a mapping mutation moves the
	// fingerprint. Candidate-ness (chunk state + mapped-sub count) only
	// changes through vm operations that bump some Region.Gen, so an
	// unchanged fingerprint proves a repeat scan would again promote
	// nothing.
	cleanFP   uint64
	haveClean bool
}

// New attaches a THP subsystem to an address space and installs its
// allocation-size hook. start2M sets both switches: 2 MB allocation and
// promotion start on together or off together.
func New(space *vm.AddrSpace, start2M bool, costs vm.OpCosts) *THP {
	t := &THP{Space: space, Costs: costs, alloc: start2M, promote: start2M, minSubs: promoteMinSubs, maxPerPass: promoteMaxPerPass}
	space.AllocSize = t.allocSize
	return t
}

// allocSize is the fault-path hook: 2 MB for THP-eligible regions while
// allocation is enabled, 4 KB otherwise.
func (t *THP) allocSize(r *vm.Region, _ int) mem.PageSize {
	if t.alloc && r.THPEligible {
		return mem.Size2M
	}
	return mem.Size4K
}

// SetAllocEnabled toggles 2 MB page allocation (Algorithm 1 lines 5, 8, 17).
func (t *THP) SetAllocEnabled(on bool) { t.alloc = on }

// SetPromoteEnabled toggles 2 MB page promotion (Algorithm 1 line 6).
func (t *THP) SetPromoteEnabled(on bool) { t.promote = on }

// AllocEnabled reports whether 2 MB allocation is currently on.
func (t *THP) AllocEnabled() bool { return t.alloc }

// PromoteEnabled reports whether 2 MB promotion is currently on.
func (t *THP) PromoteEnabled() bool { return t.promote }

// Promoted returns the number of chunks promoted so far.
func (t *THP) Promoted() uint64 { return t.promoted }

// mappingFingerprint summarizes the address space's mapping state for
// the dirty gate. Every mapping mutation (fault, promotion, demotion,
// split, migration, unmap) bumps some region's Gen and region counts
// only grow, so the sum is strictly monotone: an unchanged fingerprint
// proves no mapping changed since it was taken.
func (t *THP) mappingFingerprint() uint64 {
	regions := t.Space.Regions()
	fp := uint64(len(regions))
	for _, r := range regions {
		fp += r.Gen()
	}
	return fp
}

// PendingWork reports whether the next RunPromotionPass could do
// anything at all. It is false while either switch is off (the pass
// returns immediately) and after a clean full scan whose fingerprint
// still matches (a repeat scan would provably find the same zero
// candidates). Skipping the pass in either state is behaviorally
// identical to running it: both cost zero cycles and mutate nothing
// the scan logic can observe.
func (t *THP) PendingWork() bool {
	if !t.promote || !t.alloc {
		return false
	}
	return !t.haveClean || t.cleanFP != t.mappingFingerprint()
}

// RunPromotionPass performs one khugepaged scan: it promotes up to
// promoteMaxPerPass sufficiently-mapped 4 KB chunks of THP-eligible
// regions into 2 MB pages on their dominant node, returning the overhead
// cycles consumed.
func (t *THP) RunPromotionPass() float64 {
	if !t.promote || !t.alloc {
		return 0
	}
	regions := t.Space.Regions()
	if len(regions) == 0 {
		return 0
	}
	fp := t.mappingFingerprint()
	var cycles float64
	promoted := 0
	visited := 0
	candidates := 0
	totalChunks := 0
	for _, r := range regions {
		totalChunks += r.NumChunks()
	}
	for promoted < t.maxPerPass && visited < totalChunks {
		if t.cursorRegion >= len(regions) {
			t.cursorRegion = 0
		}
		r := regions[t.cursorRegion]
		if t.cursorChunk >= r.NumChunks() {
			t.cursorRegion++
			t.cursorChunk = 0
			continue
		}
		ci := t.cursorChunk
		t.cursorChunk++
		visited++
		if !r.THPEligible {
			continue
		}
		info := r.ChunkInfo(ci)
		if info.State != vm.Mapped4K || info.MappedSubs < t.minSubs {
			continue
		}
		// From here on the chunk is a promotion candidate: whether it
		// actually promotes depends on access statistics and buddy
		// availability, which mutate without a Gen bump, so a scan that
		// saw any candidate must not be recorded as clean.
		candidates++
		node, ok := r.DominantSubNode(ci)
		if !ok {
			continue
		}
		cyc, ok := r.PromoteChunk(ci, node, t.minSubs, t.Costs)
		if ok {
			cycles += cyc
			promoted++
			t.promoted++
		}
	}
	if visited == totalChunks && candidates == 0 {
		// Full scan, nothing even eligible: the pass mutated nothing, so
		// the at-entry fingerprint is still current and gates the next one.
		t.cleanFP = fp
		t.haveClean = true
	}
	return cycles
}
