package policy

import (
	"fmt"
	"math"

	"repro/internal/carrefour"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/thp"
	"repro/internal/topo"
	"repro/internal/vm"
)

// pageSize is the page-size manager: it attaches a THP subsystem (whose
// switches other mechanisms may toggle) and runs the khugepaged
// promotion scan every epoch.
type pageSize struct {
	start2M bool
}

func (m pageSize) Describe() string {
	if m.start2M {
		return "page-size: THP (2M allocation + promotion)"
	}
	return "page-size: THP attached, starting at 4K"
}

func (m pageSize) Install(env *sim.Env, pl *Pipeline) {
	t := thp.New(env.Space, m.start2M, env.Costs)
	env.THP = t
	pl.thpSys = t
	// Dirty-gated: the pass is a contractual no-op while PendingWork is
	// false (switches off, or a clean scan's fingerprint still matches),
	// so the hook neither fires nor pins NextDaemonDue then — THP-family
	// pipelines can prove quiet windows once promotion work drains.
	pl.EveryDue("khugepaged", 0, t.PendingWork, func(*sim.Env, float64) float64 {
		return t.RunPromotionPass()
	})
}

// giantPages reserves 1 GB pages for every region up front (hugetlbfs
// semantics, §4.4): the gigantic pool is taken from the master's node
// before any worker touches memory.
type giantPages struct{}

func (giantPages) Describe() string { return "page-size: 1G hugetlbfs reservation" }

func (giantPages) Install(env *sim.Env, _ *Pipeline) {
	node := env.Machine.NodeOf(0)
	for _, r := range env.Space.Regions() {
		for head := 0; head < r.NumChunks(); head += vm.ChunksPerGiant {
			if err := r.MapGiant(head, node); err != nil {
				// Pool exhausted on the node: fall back to other nodes,
				// like a multi-node pool reservation.
				fallback := false
				for n := 0; n < env.Machine.Nodes; n++ {
					if err := r.MapGiant(head, topo.NodeID(n)); err == nil {
						fallback = true
						break
					}
				}
				if !fallback {
					panic(fmt.Sprintf("policy: cannot reserve 1G page for %s: %v", r.Name, err))
				}
			}
		}
	}
}

// daemonIntervalSeconds is the decision period of every sample-driven
// daemon: Algorithm 1's 1 s interval (line 3), which the Carrefour,
// Trident and page-table migration passes share.
const daemonIntervalSeconds float64 = 1

// placement runs the standalone Carrefour migration/interleaving daemon.
type placement struct{}

func (placement) Describe() string { return "placement: Carrefour daemon" }

func (placement) Install(env *sim.Env, pl *Pipeline) {
	car := carrefour.New()
	pl.car = car
	pl.NeedsTelemetry()
	pl.Every("carrefour", daemonIntervalSeconds, func(env *sim.Env, now float64) float64 {
		return car.TickWith(env, pl.View(env, now))
	})
}

// lpControl runs the Carrefour-LP controller (Algorithm 1), which owns
// its Carrefour instance and drives the THP switches installed by the
// page-size mechanism.
type lpControl struct {
	conservative, reactive bool
}

func (m lpControl) Describe() string {
	return fmt.Sprintf("controller: Carrefour-LP (conservative=%v, reactive=%v)", m.conservative, m.reactive)
}

func (m lpControl) Install(env *sim.Env, pl *Pipeline) {
	car := carrefour.New()
	lp := core.New(car)
	lp.Conservative = m.conservative
	lp.Reactive = m.reactive
	lp.Bind(pl.thpSys)
	pl.car = car
	pl.lp = lp
	pl.NeedsTelemetry()
	pl.Every("carrefour-lp", daemonIntervalSeconds, func(env *sim.Env, now float64) float64 {
		return lp.TickWith(env, pl.View(env, now))
	})
}

// tridentLadder runs the 4K/2M/1G ladder controller with
// Carrefour-LP-style demotion.
type tridentLadder struct{}

func (tridentLadder) Describe() string { return "controller: Trident 4K/2M/1G ladder" }

func (tridentLadder) Install(env *sim.Env, pl *Pipeline) {
	car := carrefour.New()
	tr := core.NewTrident(car)
	tr.Bind(pl.thpSys)
	pl.car = car
	pl.trident = tr
	pl.NeedsTelemetry()
	pl.Every("trident", daemonIntervalSeconds, func(env *sim.Env, now float64) float64 {
		return tr.TickWith(env, pl.View(env, now))
	})
}

// PTMode selects a page-table placement scheme.
type PTMode int

const (
	// PTFirstTouch leaves page tables where Linux allocates them: on the
	// node of the thread that faulted the region first.
	PTFirstTouch PTMode = iota
	// PTReplicate keeps a full page-table replica per node
	// (Mitosis-style): every walk is node-local, every fault pays the
	// replica-update cost.
	PTReplicate
	// PTMigrate re-homes a region's page tables to its dominant accessor
	// node when page-walk pressure crosses a threshold.
	PTMigrate
)

// pageTables enables NUMA-aware page-table pricing and applies one of
// the placement schemes.
type pageTables struct {
	mode PTMode
}

// Migrate-mode thresholds: act on ≥2% walk share (well below the
// conservative component's 5% alarm threshold — moving page tables is
// far cheaper than toggling page sizes) and require the move to cut the
// sampled accessors' expected walk fabric latency by 10%.
const (
	ptMigPressurePct   float64 = 2
	ptMigLatencyCutPct float64 = 10
)

func (m pageTables) Describe() string {
	switch m.mode {
	case PTReplicate:
		return "page-tables: replicated per node (Mitosis)"
	case PTMigrate:
		return "page-tables: migrate to dominant accessor"
	default:
		return "page-tables: first-touch"
	}
}

func (m pageTables) Install(env *sim.Env, pl *Pipeline) {
	env.PageTables = &sim.PTConfig{Replicated: m.mode == PTReplicate}
	if m.mode == PTReplicate {
		env.Space.PTReplicas = env.Machine.Nodes
	}
	if m.mode != PTMigrate {
		return
	}
	pl.NeedsTelemetry()
	pl.Every("pt-migrate", daemonIntervalSeconds, func(env *sim.Env, now float64) float64 {
		return migratePageTables(env, pl.View(env, now))
	})
}

// migratePageTables is the NumaPTEMig daemon pass: when the interval's
// page-walk share of L2 misses crosses the threshold, each region's
// page tables move to the dominant accessor node — the node minimizing
// the sampled accessors' expected fabric latency to the page tables
// (under a symmetric fabric that is the plurality accessor; on machine
// B's two-hop topology centrality matters too) — provided the move cuts
// that latency by at least ptMigLatencyCutPct. The accessor distribution
// comes from the shared IBS view — the hardware-visible evidence — not
// from ground truth. Each pass pays carrefour.PassCost like the other
// daemons; without it the beyond experiment would compare policies
// under unlike cost models.
func migratePageTables(env *sim.Env, v sim.View) float64 {
	overhead := carrefour.PassCost(len(v.Samples))
	if v.Window.PTWSharePct < ptMigPressurePct {
		return overhead
	}
	regions := env.Space.Regions()
	nodes := env.Machine.Nodes
	weight := make([]float64, len(regions)*nodes)
	for i := range v.Samples {
		s := &v.Samples[i]
		if !s.DRAM {
			continue
		}
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		weight[s.Page.Region.ID*nodes+int(s.AccessorNode)] += w
	}
	cycles := overhead
	for ri, r := range regions {
		home, ok := r.PTHome()
		if !ok {
			continue
		}
		row := weight[ri*nodes : (ri+1)*nodes]
		expected := func(pt int) float64 {
			var c float64
			for n, w := range row {
				if w > 0 {
					c += w * env.Fabric.Latency(topo.NodeID(n), topo.NodeID(pt))
				}
			}
			return c
		}
		cur := expected(int(home))
		if cur <= 0 {
			continue // walks already all-local (or region unsampled)
		}
		best, bestCost := int(home), cur
		for n := 0; n < nodes; n++ {
			if c := expected(n); c < bestCost {
				best, bestCost = n, c
			}
		}
		if bestCost > cur*(1-ptMigLatencyCutPct/100) {
			continue
		}
		if r.MigratePT(topo.NodeID(best)) {
			pages := math.Ceil(float64(r.PTBytes()) / 4096)
			cycles += env.Costs.PTMigrateMin + pages*env.Costs.Migrate4K
		}
	}
	return cycles
}
