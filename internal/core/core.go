// Package core implements Carrefour-LP, the paper's contribution: large-
// page extensions to the Carrefour NUMA page-placement algorithm
// (Algorithm 1 in §3.2). Each interval (the policy pipeline runs one every
// second) it reads hardware counters and IBS samples from a shared
// telemetry view, then runs two cooperating components:
//
// Conservative (lines 4-9): re-enables 2 MB allocation and promotion when
// TLB pressure (the fraction of L2 misses caused by page-table walks) or
// page-fault time (the maximum share of any core's time in the fault
// handler) crosses 5%.
//
// Reactive (lines 10-20): estimates from IBS samples the LAR that
// Carrefour's placement would achieve with and without splitting large
// pages; if placement alone promises a >15% LAR gain the pages stay large,
// otherwise if splitting promises ≥5% it demotes all shared 2 MB pages and
// disables 2 MB allocation. Hot pages (>6% of sampled accesses) are always
// split and interleaved. Finally Carrefour's migrate/interleave pass runs.
//
// The reactive component's what-if LAR estimates inherit real IBS sample
// scarcity: a 2 MB page's samples rarely cover its 4 KB sub-pages well, so
// per-sub-page groups often look single-node and the post-split LAR is
// over-estimated — the exact failure mode §4.1 reports for SSCA, and the
// reason the conservative component exists.
//
// The thresholds above, and the Trident ladder's, are package constants
// (DESIGN.md §4.4 tabulates them against Algorithm 1's lines).
package core

import (
	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/thp"
	"repro/internal/vm"
)

// Algorithm 1's calibration (DESIGN.md §4.4 tabulates it).
const (
	// tlbSharePct enables 2 MB allocation+promotion when the fraction of
	// L2 misses from page-table walks exceeds it (line 4: 5%).
	tlbSharePct float64 = 5
	// faultSharePct enables 2 MB allocation when any core spends more
	// than this share of time in the page-fault handler (line 7: 5%).
	faultSharePct float64 = 5
	// carrefourGainPct keeps pages large when placement alone promises at
	// least this LAR improvement (line 10: 15%).
	carrefourGainPct float64 = 15
	// splitGainPct triggers splitting when the split estimate promises at
	// least this LAR improvement (line 12: 5%).
	splitGainPct float64 = 5
	// hotPagePct is the hot-page threshold (line 19: 6% of accesses).
	hotPagePct float64 = perf.HotPageThresholdPct
	// maxSplitsPerInterval bounds demotions per pass.
	maxSplitsPerInterval int = 16384
)

// LP is the Carrefour-LP daemon. Conservative and Reactive can be toggled
// independently to reproduce Figure 4's component breakdown.
type LP struct {
	Car *carrefour.Carrefour

	// Conservative and Reactive enable the two components.
	Conservative bool
	Reactive     bool

	thp *thp.THP

	splitPages bool

	// tlbShare is line 4's threshold, filled from tlbSharePct; a field
	// so that an in-package test can lower it.
	tlbShare float64
	// sharedSplit enables line 16's split-all-shared-pages rule. The
	// paper splits *all* shared 2 MB pages because per-page LAR is too
	// noisy to pick individual victims (§3.2.1); with it off only hot
	// pages are ever split, the ablation DESIGN.md §4.4 describes.
	sharedSplit bool

	splits     uint64
	hotSplits  uint64
	reenables  uint64
	lastEstCur float64
	lastEstCar float64
	lastEstSpl float64

	// Reused per-tick scratch: sample grouping state and the remap/rebind
	// sample buffers (multi-MB per interval at full sample volume).
	groupScratch carrefour.GroupScratch
	subScratch   carrefour.GroupScratch
	remapBuf     []ibs.Sample
}

// New builds a Carrefour-LP daemon with both components enabled.
func New(car *carrefour.Carrefour) *LP {
	return &LP{Car: car, Conservative: true, Reactive: true, tlbShare: tlbSharePct, sharedSplit: true}
}

// Bind attaches the THP subsystem whose switches Algorithm 1 toggles.
func (lp *LP) Bind(t *thp.THP) { lp.thp = t }

// Stats reports cumulative decisions: shared-page splits, hot-page splits
// and conservative re-enables.
func (lp *LP) Stats() (splits, hotSplits, reenables uint64) {
	return lp.splits, lp.hotSplits, lp.reenables
}

// LastEstimates exposes the most recent (current, carrefour-only, split)
// LAR estimates, for diagnostics and tests of the misestimation behaviour.
func (lp *LP) LastEstimates() (cur, carrefourOnly, split float64) {
	return lp.lastEstCur, lp.lastEstCar, lp.lastEstSpl
}

// TickWith runs one Algorithm 1 interval on a telemetry view the caller
// gathered (line 3: hardware performance counters and IBS samples); the
// policy pipeline gates the period.
func (lp *LP) TickWith(env *sim.Env, v sim.View) float64 {
	w, samples := v.Window, v.Samples
	overhead := carrefour.PassCost(len(samples))

	if lp.Conservative && lp.thp != nil {
		// Lines 4-9: re-enable large pages under TLB or fault pressure.
		if w.PTWSharePct > lp.tlbShare {
			if !lp.thp.AllocEnabled() || !lp.thp.PromoteEnabled() {
				lp.reenables++
			}
			lp.thp.SetAllocEnabled(true)
			lp.thp.SetPromoteEnabled(true)
		} else if w.MaxFaultSharePct > faultSharePct {
			if !lp.thp.AllocEnabled() {
				lp.reenables++
			}
			lp.thp.SetAllocEnabled(true)
		}
	}

	var groups, subGroups []carrefour.PageGroup
	if lp.Reactive {
		var cycles float64
		groups, subGroups, cycles = lp.reactive(env, samples)
		overhead += cycles
	}

	// Line 20: interleave and migrate pages with Carrefour.
	overhead += placeRebound(lp.Car, env, samples, &lp.remapBuf, groups, subGroups)
	return overhead
}

// reactive implements lines 10-19. It returns the interval's groupings
// at the sampled granularity and in the 4 KB what-if, and the cycles
// spent splitting.
func (lp *LP) reactive(env *sim.Env, samples []ibs.Sample) (groups, subGroups []carrefour.PageGroup, cycles float64) {
	nodes := env.Machine.Nodes
	groups = lp.groupScratch.Group(samples, nodes)
	cur := sampledLAR(groups)
	carLAR := estimatePlacementLAR(groups, nodes)
	// Without a large-page DRAM sample the 4 KB what-if is the sampled
	// view itself.
	subGroups, splitLAR := groups, carLAR
	if anyLargeDRAM(samples) {
		subGroups = lp.subScratch.Group(remapTo4KInto(&lp.remapBuf, samples), nodes)
		splitLAR = estimatePlacementLAR(subGroups, nodes)
	}
	lp.lastEstCur, lp.lastEstCar, lp.lastEstSpl = cur, carLAR, splitLAR

	// Lines 10-14.
	if carLAR-cur > carrefourGainPct {
		lp.splitPages = false
	} else if splitLAR-cur > splitGainPct {
		lp.splitPages = true
	}

	allocOff := lp.thp != nil && !lp.thp.AllocEnabled()

	// Lines 15-18: split all shared 2 MB pages; disable 2 MB allocation.
	if (lp.splitPages || allocOff) && lp.sharedSplit {
		splits := 0
		for i := range groups {
			if splits >= maxSplitsPerInterval {
				break
			}
			g := &groups[i]
			if g.Page.Sub >= 0 || g.Threads() < 2 {
				continue
			}
			if g.Page.Region.ChunkInfo(g.Page.Chunk).State != vm.Mapped2M {
				continue
			}
			cyc, ok := g.Page.Region.SplitChunk(g.Page.Chunk, env.Costs)
			cycles += cyc
			if ok {
				splits++
				lp.splits++
			}
		}
		if lp.thp != nil {
			lp.thp.SetAllocEnabled(false)
		}
	}

	// Line 19: split and interleave 2 MB hot pages.
	var total float64
	for i := range groups {
		total += groups[i].Weight
	}
	if total > 0 {
		for i := range groups {
			g := &groups[i]
			if g.Page.Sub >= 0 {
				continue
			}
			if g.Weight/total*100 <= hotPagePct {
				continue
			}
			if g.Page.Region.ChunkInfo(g.Page.Chunk).State != vm.Mapped2M {
				continue
			}
			cyc, ok := g.Page.Region.SplitChunk(g.Page.Chunk, env.Costs)
			cycles += cyc
			if ok {
				cycles += g.Page.Region.InterleaveSubs(g.Page.Chunk, env.Rng, env.Costs)
				lp.hotSplits++
				// Keep khugepaged from immediately re-collapsing the
				// pages we just split; the conservative component will
				// re-enable promotion if TLB pressure warrants it.
				if lp.thp != nil {
					lp.thp.SetPromoteEnabled(false)
				}
			}
		}
	}
	return groups, subGroups, cycles
}

// anyLargeDRAM reports whether a DRAM sample names a 2 MB or 1 GB page.
func anyLargeDRAM(samples []ibs.Sample) bool {
	for i := range samples {
		if samples[i].DRAM && samples[i].Page.Sub < 0 {
			return true
		}
	}
	return false
}

// sampledLAR is the current LAR as visible in the DRAM samples.
func sampledLAR(groups []carrefour.PageGroup) float64 {
	var local, total float64
	for i := range groups {
		local += groups[i].LocalWeight
		total += groups[i].Weight
	}
	if total <= 0 {
		return 100
	}
	return local / total * 100
}

// estimatePlacementLAR predicts the LAR after Carrefour placement: pages
// sampled from a single node become fully local (migration); pages sampled
// from several nodes are interleaved, making 1/nodes of their accesses
// local (§3.2.1).
func estimatePlacementLAR(groups []carrefour.PageGroup, nodes int) float64 {
	var local, total float64
	for i := range groups {
		g := &groups[i]
		total += g.Weight
		if single, _ := g.SingleNode(); single {
			local += g.Weight
		} else {
			local += g.Weight / float64(nodes)
		}
	}
	if total <= 0 {
		return 100
	}
	return local / total * 100
}

// resizeSamples returns a buffer of exactly n samples backed by *buf,
// growing it when needed.
func resizeSamples(buf *[]ibs.Sample, n int) []ibs.Sample {
	if cap(*buf) < n {
		*buf = make([]ibs.Sample, n)
	}
	return (*buf)[:n]
}

// remapTo4KInto rewrites samples of 2 MB (and 1 GB) pages onto their
// 4 KB sub-pages, into a caller-owned reusable buffer (valid until the
// buffer's next use) — the what-if view "if the large pages were split"
// (§3.2.1: "we can map the data addresses to 4KB pages and compute the
// same metrics for the scenario if the large pages were split").
func remapTo4KInto(buf *[]ibs.Sample, samples []ibs.Sample) []ibs.Sample {
	out := resizeSamples(buf, len(samples))
	copy(out, samples)
	for i := range out {
		out[i].Page = page4K(&out[i])
	}
	return out
}

// page4K is the sample's 4 KB page: its own page when that is 4 KB,
// else the 4 KB sub-page of its large page holding the access.
func page4K(s *ibs.Sample) vm.PageID {
	if s.Page.Sub >= 0 {
		return s.Page
	}
	return vm.PageID{Region: s.Page.Region, Chunk: int(s.Off / uint64(mem.Size2M)), Sub: int(s.Off % uint64(mem.Size2M) / uint64(mem.Size4K))}
}

// currentPage is the page that backs the sample's address now, at its
// current mapping granularity; an unmapped chunk keeps the sampled page.
func currentPage(s *ibs.Sample) vm.PageID {
	r := s.Page.Region
	chunk := int(s.Off / uint64(mem.Size2M))
	info := r.ChunkInfo(chunk)
	switch info.State {
	case vm.Mapped4K:
		return vm.PageID{Region: r, Chunk: chunk, Sub: int(s.Off % uint64(mem.Size2M) / uint64(mem.Size4K))}
	case vm.Mapped2M:
		return vm.PageID{Region: r, Chunk: chunk, Sub: -1}
	case vm.Mapped1G:
		return vm.PageID{Region: r, Chunk: info.GiantHead, Sub: -1}
	}
	return s.Page
}

// rebindInto refreshes sample page identities after splits so
// Carrefour's placement pass operates on current granularities, writing
// into a caller-owned reusable buffer.
func rebindInto(buf *[]ibs.Sample, samples []ibs.Sample) []ibs.Sample {
	out := resizeSamples(buf, len(samples))
	copy(out, samples)
	for i := range out {
		out[i].Page = currentPage(&out[i])
	}
	return out
}

// placeRebound runs Carrefour's placement pass on the samples rebound
// to current granularities, reusing a grouping the interval already
// holds when it is the rebound one (see reusableGrouping).
func placeRebound(car *carrefour.Carrefour, env *sim.Env, samples []ibs.Sample, buf *[]ibs.Sample, sampled, split4K []carrefour.PageGroup) float64 {
	if groups := reusableGrouping(samples, sampled, split4K); groups != nil {
		return car.ApplyGroups(env, groups)
	}
	return car.Apply(env, rebindInto(buf, samples))
}

// reusableGrouping returns the interval's grouping that equals a fresh
// grouping of the rebound samples, or nil. Grouping depends only on the
// DRAM samples' pages, so sampled (the grouping at the sampled pages)
// qualifies when every DRAM sample's current page is its sampled page,
// and split4K (the 4 KB what-if) when it is its 4 KB page. Either may
// be nil when the interval did not compute it.
func reusableGrouping(samples []ibs.Sample, sampled, split4K []carrefour.PageGroup) []carrefour.PageGroup {
	same, same4K := sampled != nil, split4K != nil
	for i := range samples {
		if !same && !same4K {
			return nil
		}
		s := &samples[i]
		if !s.DRAM {
			continue
		}
		p := currentPage(s)
		same = same && p == s.Page
		same4K = same4K && p == page4K(s)
	}
	switch {
	case same:
		return sampled
	case same4K:
		return split4K
	}
	return nil
}
