package policy

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/carrefour"
	"repro/internal/ibs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func miniSpec() workloads.Spec {
	return workloads.Spec{
		Name: "mini",
		Regions: []workloads.RegionSpec{
			{Name: "r", Bytes: 2 << 30, Weight: 1, Loc: cache.RandomUniform,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 64},
		},
		WorkPerThread:        1e5,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.5,
	}
}

func setup(t *testing.T, pol sim.OS) *sim.Env {
	t.Helper()
	eng, err := sim.New(topo.MachineA(), miniSpec(), pol, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng.Env()
}

func mustBuild(name string) *Pipeline {
	spec, err := SpecByName(name)
	if err != nil {
		panic(err)
	}
	return Build(spec)
}

func TestByNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, p.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestLinux4KHasNoTHP(t *testing.T) {
	env := setup(t, mustBuild("Linux4K"))
	if env.THP != nil {
		t.Fatal("Linux4K attached a THP subsystem")
	}
	r := env.Space.Regions()[0]
	if res := r.Access(0, 0, 0); res.PageSize != mem.Size4K {
		t.Fatalf("Linux4K faulted a %v page", res.PageSize)
	}
}

func TestTHPPolicyBacks2M(t *testing.T) {
	env := setup(t, mustBuild("THP"))
	if env.THP == nil || !env.THP.AllocEnabled() || !env.THP.PromoteEnabled() {
		t.Fatal("THP policy did not enable the subsystem")
	}
	r := env.Space.Regions()[0]
	if res := r.Access(0, 0, 0); res.PageSize != mem.Size2M {
		t.Fatalf("THP faulted a %v page", res.PageSize)
	}
}

func TestConservativeStartsSmall(t *testing.T) {
	pol := mustBuild("Conservative")
	env := setup(t, pol)
	if env.THP == nil {
		t.Fatal("Conservative needs a THP subsystem (to enable later)")
	}
	if env.THP.AllocEnabled() {
		t.Fatal("Conservative must start with 4K pages")
	}
	if pol.LP() == nil || pol.LP().Reactive || !pol.LP().Conservative {
		t.Fatal("Conservative must run only the conservative component")
	}
}

func TestReactiveStartsLarge(t *testing.T) {
	pol := mustBuild("Reactive")
	env := setup(t, pol)
	if !env.THP.AllocEnabled() {
		t.Fatal("Reactive must start with 2M pages (Algorithm 1 line 1)")
	}
	if pol.LP() == nil || pol.LP().Conservative || !pol.LP().Reactive {
		t.Fatal("Reactive must run only the reactive component")
	}
}

func TestCarrefourLPHasBothComponents(t *testing.T) {
	pol := mustBuild("CarrefourLP")
	env := setup(t, pol)
	if !env.THP.AllocEnabled() || !env.THP.PromoteEnabled() {
		t.Fatal("Carrefour-LP starts with allocation and promotion enabled")
	}
	lp := pol.LP()
	if lp == nil || !lp.Conservative || !lp.Reactive {
		t.Fatal("Carrefour-LP must run both components")
	}
	if pol.Carrefour() == nil {
		t.Fatal("Carrefour-LP needs the placement daemon")
	}
}

func TestCarrefour2MHasOnlyPlacement(t *testing.T) {
	pol := mustBuild("Carrefour2M")
	setup(t, pol)
	if pol.LP() != nil {
		t.Fatal("Carrefour2M must not run LP components")
	}
	if pol.Carrefour() == nil {
		t.Fatal("Carrefour2M needs the placement daemon")
	}
}

func TestHugeTLB1GMapsEverything(t *testing.T) {
	env := setup(t, mustBuild("HugeTLB1G"))
	r := env.Space.Regions()[0]
	_, _, n1g := r.MappedPages()
	if n1g != 2 {
		t.Fatalf("1G pages mapped = %d, want 2 (2 GiB region)", n1g)
	}
	res := r.Access(23, 23, 1<<30+5)
	if res.Faulted || res.PageSize != mem.Size1G {
		t.Fatalf("giant access: %+v", res)
	}
	// Everything reserved from the master's node.
	if res.Node != 0 {
		t.Fatalf("giant page on node %d, want 0", res.Node)
	}
}

func TestMitosisReplicatesPageTables(t *testing.T) {
	env := setup(t, mustBuild("MitosisPTR"))
	if env.PageTables == nil || !env.PageTables.Replicated {
		t.Fatal("MitosisPTR must enable replicated page-table pricing")
	}
	if env.Space.PTReplicas != env.Machine.Nodes {
		t.Fatalf("PTReplicas = %d, want %d", env.Space.PTReplicas, env.Machine.Nodes)
	}
}

func TestPTBaselineEnablesPricingOnly(t *testing.T) {
	env := setup(t, mustBuild("PTBaseline"))
	if env.PageTables == nil || env.PageTables.Replicated {
		t.Fatal("PTBaseline must price first-touch page tables, unreplicated")
	}
	if env.Space.PTReplicas != 0 {
		t.Fatal("PTBaseline must not replicate")
	}
	if env.THP != nil {
		t.Fatal("PTBaseline runs on 4 KB pages (where walks are frequent enough to price)")
	}
}

func TestNumaPTEMigMigratesOnPressure(t *testing.T) {
	pol := mustBuild("NumaPTEMig")
	env := setup(t, pol)
	if env.PageTables == nil || env.PageTables.Replicated {
		t.Fatal("NumaPTEMig prices unreplicated page tables")
	}
	r := env.Space.Regions()[0]
	// First fault from core 0 homes the page tables on node 0.
	r.Access(0, 0, 0)
	if home, ok := r.PTHome(); !ok || home != 0 {
		t.Fatalf("PT home = %v,%v, want node 0", home, ok)
	}
	// Every sampled access comes from node 2 cores (machine A: cores
	// 12-17), so node 2 dominates the accessor distribution.
	var samples []ibs.Sample
	for i := 0; i < 32; i++ {
		samples = append(samples, ibs.Sample{
			Page: vm.PageID{Region: r, Chunk: 0, Sub: 0}, Off: 0,
			Thread: 12, Core: 12, AccessorNode: 2, HomeNode: 0,
			DRAM: true, Weight: 1,
		})
	}
	pressured := sim.View{Window: sim.WindowMetrics{PTWSharePct: 50}, Samples: samples}

	// Without walk pressure the daemon must not move the page tables,
	// but it still pays its scan overhead.
	if oh := migratePageTables(env, sim.View{Samples: samples}); oh <= 0 {
		t.Fatal("gated pass charged no scan overhead")
	}
	if home, _ := r.PTHome(); home != 0 {
		t.Fatal("migrated without walk pressure")
	}
	// Under pressure the page tables follow the dominant accessor, and
	// the pass charges migration cycles beyond the scan overhead.
	moved := migratePageTables(env, pressured)
	if home, _ := r.PTHome(); home != 2 {
		t.Fatalf("PT home = %v, want dominant accessor node 2", home)
	}
	if moved <= carrefour.PassCost(len(samples)) {
		t.Fatalf("migrating pass cycles = %v, want scan overhead plus copy cost", moved)
	}
	// A repeat pass is a no-op: already home, no extra copy cost.
	again := migratePageTables(env, pressured)
	if home, _ := r.PTHome(); home != 2 {
		t.Fatal("page tables drifted on a no-op pass")
	}
	if again >= moved {
		t.Fatalf("no-op pass (%v) should cost less than the migrating pass (%v)", again, moved)
	}
}

func TestTridentLPComposition(t *testing.T) {
	pol := mustBuild("TridentLP")
	env := setup(t, pol)
	if pol.Trident() == nil {
		t.Fatal("TridentLP must run the ladder controller")
	}
	if env.PageTables == nil {
		t.Fatal("TridentLP prices page-table locality")
	}
	if env.THP == nil || !env.THP.AllocEnabled() {
		t.Fatal("TridentLP climbs from THP's 2M rung")
	}
}

func TestMechanismsDescribeComposition(t *testing.T) {
	pol := mustBuild("CarrefourLP")
	mechs := pol.Mechanisms()
	if len(mechs) != 2 {
		t.Fatalf("CarrefourLP composes %d mechanisms, want 2 (page-size, LP): %v", len(mechs), mechs)
	}
}

func TestPolicyTickRunsDaemons(t *testing.T) {
	pol := mustBuild("CarrefourLP")
	env := setup(t, pol)
	r := env.Space.Regions()[0]
	for ci := 0; ci < 8; ci++ {
		r.Access(topo.CoreID(ci), ci, uint64(ci)*uint64(mem.Size2M))
	}
	// The first LP interval runs and charges daemon cycles; the pipeline
	// gates the next one to a full daemonIntervalSeconds later.
	if oh := pol.Tick(env, 1.0); oh <= 0 {
		t.Fatal("CarrefourLP tick should consume cycles")
	}
	if oh := pol.Tick(env, 1.5); oh != 0 {
		t.Fatalf("tick 0.5 s after a pass charged %v cycles, want 0", oh)
	}
	if oh := pol.Tick(env, 2.1); oh <= 0 {
		t.Fatal("tick 1.1 s after a pass should run the next interval")
	}
}
