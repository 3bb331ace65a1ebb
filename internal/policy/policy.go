// Package policy assembles OS configurations as pipelines of composable
// mechanisms (page-size manager, placement daemon, LP controller,
// page-table placement — see pipeline.go and mechanisms.go).
//
// The paper's seven configurations are declarative Specs over those
// mechanisms:
//
//	Linux4K      — default Linux with 4 KB pages (the baseline all
//	               figures normalize to)
//	THP          — Linux with Transparent Huge Pages (2 MB allocation and
//	               khugepaged promotion)
//	Carrefour2M  — THP plus the Carrefour placement daemon (§3.1)
//	Conservative — Carrefour on 4 KB pages plus only the conservative
//	               component of Carrefour-LP (Figure 4's "Conservative")
//	Reactive     — THP, Carrefour, and only the reactive component
//	               (Figure 4's "Reactive")
//	CarrefourLP  — the full Algorithm 1 (§3.2)
//	HugeTLB1G    — 1 GB pages established up front via hugetlbfs (§4.4)
//
// Four more pipelines go beyond the paper, attacking the NUMA blind spot
// the paper leaves open — where the page tables themselves live — and
// the multi-size ladder of later work:
//
//	PTBaseline   — 4 KB pages under NUMA-aware page-table pricing with
//	               first-touch page tables; the control the next three
//	               compare to
//	MitosisPTR   — page-table replication on every node (Mitosis,
//	               Achermann et al.): local walks, paid for by a
//	               replica-update cost on every fault
//	NumaPTEMig   — page-table migration to the dominant accessor node
//	               when page-walk pressure crosses a threshold
//	TridentLP    — a 4K/2M/1G page-size ladder with Carrefour-LP-style
//	               demotion (Trident, Ram et al.), under the same
//	               page-table pricing
package policy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// PageSizeSpec declares the page-size manager: a THP subsystem whose
// allocation/promotion switches start at Start2M.
type PageSizeSpec struct {
	Start2M bool
}

// LPSpec declares the Carrefour-LP controller's enabled components.
type LPSpec struct {
	Conservative bool
	Reactive     bool
}

// PageTableSpec declares a page-table placement scheme. Declaring one
// also switches the engine to NUMA-aware walk pricing, so pipelines
// with and without a PageTableSpec are not directly comparable.
type PageTableSpec struct {
	Mode PTMode
}

// Spec declares one named policy as a composition of mechanisms. Nil or
// false fields leave the mechanism out; the zero Spec is default Linux.
type Spec struct {
	Name string
	// PageSize attaches the THP subsystem (nil: pure 4 KB faults).
	PageSize *PageSizeSpec
	// Giant1G reserves 1 GB pages for every region at setup.
	Giant1G bool
	// Carrefour runs the standalone placement daemon.
	Carrefour bool
	// LP runs the Carrefour-LP controller (which owns its Carrefour).
	LP *LPSpec
	// PageTables applies a page-table placement scheme.
	PageTables *PageTableSpec
	// Trident runs the 4K/2M/1G ladder controller.
	Trident bool
}

// Build assembles the declared mechanisms into a Pipeline, in canonical
// order: page-size management first (so later mechanisms can bind its
// switches), then setup-only mappings, then the placement/controller
// daemons, then page-table placement.
func Build(spec Spec) *Pipeline {
	var mechs []Mechanism
	if spec.PageSize != nil {
		mechs = append(mechs, pageSize{start2M: spec.PageSize.Start2M})
	}
	if spec.Giant1G {
		mechs = append(mechs, giantPages{})
	}
	if spec.Carrefour {
		mechs = append(mechs, placement{})
	}
	if spec.LP != nil {
		mechs = append(mechs, lpControl{conservative: spec.LP.Conservative, reactive: spec.LP.Reactive})
	}
	if spec.Trident {
		mechs = append(mechs, tridentLadder{})
	}
	if spec.PageTables != nil {
		mechs = append(mechs, pageTables{mode: spec.PageTables.Mode})
	}
	return NewPipeline(spec.Name, mechs...)
}

// specs lists every named policy in declaration order (Names sorts).
func specs() []Spec {
	thpOn := &PageSizeSpec{Start2M: true}
	return []Spec{
		{Name: "Linux4K"},
		{Name: "THP", PageSize: thpOn},
		{Name: "Carrefour2M", PageSize: thpOn, Carrefour: true},
		{Name: "Conservative", PageSize: &PageSizeSpec{}, LP: &LPSpec{Conservative: true}},
		{Name: "Reactive", PageSize: thpOn, LP: &LPSpec{Reactive: true}},
		{Name: "CarrefourLP", PageSize: thpOn, LP: &LPSpec{Conservative: true, Reactive: true}},
		{Name: "HugeTLB1G", Giant1G: true},
		// The page-table suite runs on 4 KB pages, where walks are
		// frequent enough for page-table placement to matter (Mitosis
		// reports its largest wins in 4 KB mode for the same reason);
		// TridentLP instead climbs the page-size ladder from THP's 2 MB
		// rung under the same pricing.
		{Name: "PTBaseline", PageTables: &PageTableSpec{Mode: PTFirstTouch}},
		{Name: "MitosisPTR", PageTables: &PageTableSpec{Mode: PTReplicate}},
		{Name: "NumaPTEMig", PageTables: &PageTableSpec{Mode: PTMigrate}},
		{Name: "TridentLP", PageSize: thpOn, Trident: true, PageTables: &PageTableSpec{Mode: PTFirstTouch}},
	}
}

// ErrUnknownPolicy is the typed resolution failure of SpecByName and
// ByName, matched with errors.Is by callers that must tell a bad policy
// name from an engine failure (the serve layer answers it with HTTP
// 400).
var ErrUnknownPolicy = errors.New("policy: unknown policy")

// SpecByName returns the declarative spec of a named policy. Specs are
// built once and shared, so callers must not modify what a spec's
// pointer fields point at (Build only reads them).
func SpecByName(name string) (Spec, error) {
	if s, ok := specByName()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("%w %q", ErrUnknownPolicy, name)
}

// specByName maps every policy name to its spec, built on first use.
var specByName = sync.OnceValue(func() map[string]Spec {
	all := specs()
	m := make(map[string]Spec, len(all))
	for _, s := range all {
		m[s.Name] = s
	}
	return m
})

// ByName constructs a fresh policy instance by name.
func ByName(name string) (sim.OS, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return Build(spec), nil
}

// Names lists all policies, sorted.
func Names() []string {
	all := specs()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// PaperNames lists the seven configurations the paper evaluates, sorted.
func PaperNames() []string {
	out := []string{"Linux4K", "THP", "Carrefour2M", "Conservative", "Reactive", "CarrefourLP", "HugeTLB1G"}
	sort.Strings(out)
	return out
}

// BeyondNames lists the beyond-the-paper pipelines, baseline first.
func BeyondNames() []string {
	return []string{"PTBaseline", "MitosisPTR", "NumaPTEMig", "TridentLP"}
}
