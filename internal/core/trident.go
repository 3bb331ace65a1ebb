// Trident is the "beyond the paper" 4K/2M/1G ladder controller, after
// Ram et al.'s Trident (with Carrefour-LP-style demotion). khugepaged
// climbs the first rung (4 KB → 2 MB); every interval this daemon
//
//   - demotes 1 GB pages back to 2 MB when the sampled accesses say the
//     page is NUMA-harmful — it is hot (Algorithm 1's line-19 rule lifted
//     one level), or re-placing its data at 2 MB granularity promises a
//     Carrefour-LP-style LAR gain;
//   - promotes 1 GB-aligned spans that are fully 2 MB-mapped into 1 GB
//     pages while page-walk pressure persists, gathering the span's
//     chunks onto its dominant node (the very coalescing §4.4 of the
//     paper warns about, which is what the demotion rule guards);
//   - finally runs Carrefour's placement pass at whatever granularity
//     pages now have.
package core

import (
	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/thp"
	"repro/internal/vm"
)

// The ladder's calibration.
const (
	// promotePTWSharePct: spans are promoted to 1 GB only while the
	// fraction of L2 misses from page-table walks exceeds this (the
	// conservative component's signal, one rung up).
	promotePTWSharePct float64 = 5
	// maxPromotesPerInterval bounds 1 GB promotions per pass (each one
	// copies up to 1 GB of data).
	maxPromotesPerInterval int = 2
	// demoteGainPct demotes a shared 1 GB page when 2 MB-granularity
	// placement promises at least this LAR improvement (Algorithm 1's
	// split rule, applied to the top rung).
	demoteGainPct float64 = 5
	// giantHotPagePct always demotes a 1 GB page receiving more than
	// this share of sampled accesses (one page overloading one
	// controller).
	giantHotPagePct float64 = 12
	// promoteCooldownIntervals is how many intervals a freshly demoted
	// span is barred from re-promotion, bounding the cost rate of a
	// promote/demote oscillation on a span that stays NUMA-harmful.
	promoteCooldownIntervals int = 4
)

// Trident is the ladder daemon. It owns a Carrefour instance for the
// placement pass, like the LP controller.
type Trident struct {
	Car *carrefour.Carrefour

	thp *thp.THP

	// Reused per-tick scratch (see LP).
	groupScratch carrefour.GroupScratch
	twoMScratch  carrefour.GroupScratch
	remapBuf     []ibs.Sample

	// tick counts TickWith passes; coolUntil bars a demoted span
	// (keyed by region ID and head chunk) from re-promotion until the
	// recorded tick, so a span that stays NUMA-harmful oscillates at
	// most once per cooldown instead of every other interval.
	tick      int
	coolUntil map[spanKey]int

	promotes uint64
	demotes  uint64
}

// spanKey names one 1 GB-aligned span for the promotion cooldown.
type spanKey struct {
	region int
	head   int
}

// NewTrident builds a ladder controller.
func NewTrident(car *carrefour.Carrefour) *Trident {
	return &Trident{Car: car, coolUntil: make(map[spanKey]int)}
}

// Bind attaches the THP subsystem (the ladder's lower rung).
func (tr *Trident) Bind(t *thp.THP) { tr.thp = t }

// Stats reports cumulative ladder decisions.
func (tr *Trident) Stats() (promotes, demotes uint64) { return tr.promotes, tr.demotes }

// TickWith runs one interval on an externally gathered telemetry view.
func (tr *Trident) TickWith(env *sim.Env, v sim.View) float64 {
	tr.tick++
	overhead := carrefour.PassCost(len(v.Samples))
	groups := tr.groupScratch.Group(v.Samples, env.Machine.Nodes)
	overhead += tr.demote(env, v.Samples, groups)
	if v.Window.PTWSharePct > promotePTWSharePct {
		overhead += tr.promote(env)
	}
	// Placement at the current granularity (Carrefour skips 1 GB pages:
	// they are not migratable, which is exactly why demotion exists).
	overhead += placeRebound(tr.Car, env, v.Samples, &tr.remapBuf, groups, nil)
	return overhead
}

// demote splits NUMA-harmful 1 GB pages down to 2 MB, given the
// interval's samples and their grouping.
func (tr *Trident) demote(env *sim.Env, samples []ibs.Sample, groups []carrefour.PageGroup) float64 {
	var total float64
	any := false
	for i := range groups {
		total += groups[i].Weight
		if isGiant(groups[i].Page) {
			any = true
		}
	}
	if !any || total <= 0 {
		return 0
	}
	// The LP-style what-if: current LAR vs LAR after re-placing data at
	// 2 MB granularity (remap every sample onto its 2 MB chunk).
	cur := sampledLAR(groups)
	twoM := estimatePlacementLAR(tr.twoMScratch.Group(remapTo2MInto(&tr.remapBuf, samples), env.Machine.Nodes), env.Machine.Nodes)
	splitGain := twoM-cur > demoteGainPct

	var cycles float64
	for i := range groups {
		g := &groups[i]
		if !isGiant(g.Page) {
			continue
		}
		hot := g.Weight/total*100 > giantHotPagePct
		shared := g.Threads() >= 2
		if !hot && !(splitGain && shared) {
			continue
		}
		if cyc, ok := g.Page.Region.SplitGiant(g.Page.Chunk, env.Costs); ok {
			cycles += cyc
			tr.demotes++
			// A freshly demoted span must not bounce straight back up.
			tr.coolUntil[spanKey{g.Page.Region.ID, g.Page.Chunk}] = tr.tick + promoteCooldownIntervals
		}
	}
	return cycles
}

// promote climbs fully 2 MB-mapped, 1 GB-aligned spans onto the top
// rung, in region/span order (deterministic), skipping spans still in
// their post-demotion cooldown.
func (tr *Trident) promote(env *sim.Env) float64 {
	var cycles float64
	promoted := 0
	for _, r := range env.Space.Regions() {
		if !r.THPEligible {
			continue
		}
		for head := 0; head < r.NumChunks(); head += vm.ChunksPerGiant {
			if promoted >= maxPromotesPerInterval {
				return cycles
			}
			if tr.tick < tr.coolUntil[spanKey{r.ID, head}] {
				continue
			}
			if cyc, ok := r.PromoteGiant(head, env.Costs); ok {
				cycles += cyc
				promoted++
				tr.promotes++
			}
		}
	}
	return cycles
}

// isGiant reports whether a sampled page group is a 1 GB page.
func isGiant(p vm.PageID) bool {
	return p.Sub < 0 && p.Region.ChunkInfo(p.Chunk).State == vm.Mapped1G
}

// remapTo2MInto rewrites samples onto their 2 MB chunks, into a
// caller-owned reusable buffer — the what-if view
// "if the 1 GB pages were demoted" (the reactive component's §3.2.1
// trick, one level up; it inherits the same sample-scarcity caveat).
func remapTo2MInto(buf *[]ibs.Sample, samples []ibs.Sample) []ibs.Sample {
	out := resizeSamples(buf, len(samples))
	for i, s := range samples {
		if isGiant(s.Page) {
			s.Page = vm.PageID{Region: s.Page.Region, Chunk: int(s.Off / uint64(mem.Size2M)), Sub: -1}
		}
		out[i] = s
	}
	return out
}
