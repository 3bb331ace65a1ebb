package policy

// This file freezes the pre-pipeline policy implementation — the
// monolithic bool-flag osPolicy this package shipped before the
// composable framework — as the reference for the behavior-preservation
// test in equivalence_test.go. It must not be edited except to mirror
// externally-forced API changes in the subsystems it drives.

import (
	"fmt"

	"repro/internal/carrefour"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/thp"
	"repro/internal/topo"
	"repro/internal/vm"
)

// legacyPolicy is the frozen monolithic implementation of sim.OS.
type legacyPolicy struct {
	name string

	attachTHP bool // run a THP subsystem at all
	thpOn     bool // start with 2 MB allocation+promotion enabled
	carrefour bool // run the plain Carrefour daemon
	lpCons    bool // Carrefour-LP conservative component
	lpReact   bool // Carrefour-LP reactive component
	giant1G   bool // map every region with 1 GB pages at setup

	thpSys *thp.THP
	car    *carrefour.Carrefour
	lp     *core.LP
}

func (p *legacyPolicy) Name() string { return p.name }

func (p *legacyPolicy) Setup(env *sim.Env) {
	if p.attachTHP {
		p.thpSys = thp.New(env.Space, p.thpOn, env.Costs)
		env.THP = p.thpSys
	}
	if p.carrefour || p.lpCons || p.lpReact {
		p.car = carrefour.New()
	}
	if p.lpCons || p.lpReact {
		p.lp = core.New(p.car)
		p.lp.Conservative = p.lpCons
		p.lp.Reactive = p.lpReact
		p.lp.Bind(p.thpSys)
	}
	if p.giant1G {
		node := env.Machine.NodeOf(0)
		for _, r := range env.Space.Regions() {
			for head := 0; head < r.NumChunks(); head += vm.ChunksPerGiant {
				if err := r.MapGiant(head, node); err != nil {
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
}

func (p *legacyPolicy) Tick(env *sim.Env, now float64) float64 {
	var overhead float64
	if p.thpSys != nil {
		overhead += p.thpSys.RunPromotionPass()
	}
	switch {
	case p.lp != nil:
		overhead += p.lp.MaybeTick(env, now)
	case p.car != nil:
		overhead += p.car.MaybeTick(env, now)
	}
	return overhead
}

// legacyByName builds the frozen implementation of one of the paper's
// seven configurations.
func legacyByName(name string) (sim.OS, error) {
	switch name {
	case "Linux4K":
		return &legacyPolicy{name: "Linux4K"}, nil
	case "THP":
		return &legacyPolicy{name: "THP", attachTHP: true, thpOn: true}, nil
	case "Carrefour2M":
		return &legacyPolicy{name: "Carrefour2M", attachTHP: true, thpOn: true, carrefour: true}, nil
	case "Conservative":
		return &legacyPolicy{name: "Conservative", attachTHP: true, thpOn: false, lpCons: true}, nil
	case "Reactive":
		return &legacyPolicy{name: "Reactive", attachTHP: true, thpOn: true, lpReact: true}, nil
	case "CarrefourLP":
		return &legacyPolicy{name: "CarrefourLP", attachTHP: true, thpOn: true, lpCons: true, lpReact: true}, nil
	case "HugeTLB1G":
		return &legacyPolicy{name: "HugeTLB1G", giant1G: true}, nil
	default:
		return nil, fmt.Errorf("policy: no legacy reference for %q", name)
	}
}
