package vm_test

import (
	"sort"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/mem"
	"repro/internal/topo"
	"repro/internal/vm"
)

// TestGenTracksEveryMutation pins that every mapping mutation bumps the
// region's generation — the invalidation signal behind the analytic
// engine's placement census (DESIGN.md §4.7). A mutation that forgets
// to bump leaves the census stale and silently mis-prices traffic.
//
// The second half syncs this runtime table with the genbump analyzer's
// static classification (analyzers.GenBumpSurvey): a new exported
// mutator added to vm without a line here fails, and a method removed
// from vm while still listed here fails too. The same survey backs the
// analyzer that makes the PR 8 MigratePT bug class unrepresentable.
func TestGenTracksEveryMutation(t *testing.T) {
	m := topo.MachineA()
	phys := mem.NewSystem(m, mem.LatencyParamsFor(m.Name))
	space := vm.NewAddrSpace(m, phys, vm.DefaultFaultParams())
	costs := vm.DefaultOpCosts()

	r := space.Mmap("gen", 2<<30, true)
	exercised := map[string]bool{"AddrSpace.Mmap": true}
	expect := func(method, step string, mutated bool, g0 uint64) uint64 {
		t.Helper()
		if method != "" {
			exercised[method] = true
		}
		g := r.Gen()
		if mutated && g == g0 {
			t.Fatalf("%s did not bump the generation", step)
		}
		if !mutated && g != g0 {
			t.Fatalf("%s bumped the generation without mutating", step)
		}
		return g
	}

	g := r.Gen()
	r.Access(0, 0, 0) // 4K fault
	g = expect("", "4K fault", true, g)
	r.Access(0, 0, 0) // mapped access: no mutation
	g = expect("", "mapped access", false, g)

	space.AllocSize = func(*vm.Region, int) mem.PageSize { return mem.Size2M }
	r.Access(0, 0, 4<<20) // 2M fault
	g = expect("", "2M fault", true, g)

	if _, ok := r.MigrateChunk(2, 1, costs); !ok {
		t.Fatal("migrate failed")
	}
	g = expect("Region.MigrateChunk", "MigrateChunk", true, g)
	if _, ok := r.SplitChunk(2, costs); !ok {
		t.Fatal("split failed")
	}
	g = expect("Region.SplitChunk", "SplitChunk", true, g)
	if _, ok := r.MigrateSub(2, 0, 2, costs); !ok {
		t.Fatal("migrate sub failed")
	}
	g = expect("Region.MigrateSub", "MigrateSub", true, g)
	if _, ok := r.PromoteChunk(2, 0, 1, costs); !ok {
		t.Fatal("promote failed")
	}
	g = expect("Region.PromoteChunk", "PromoteChunk", true, g)

	if err := r.MapGiant(512, 0); err != nil {
		t.Fatal(err)
	}
	g = expect("Region.MapGiant", "MapGiant", true, g)
	if _, ok := r.SplitGiant(512, costs); !ok {
		t.Fatal("split giant failed")
	}
	g = expect("Region.SplitGiant", "SplitGiant", true, g)
	if _, ok := r.PromoteGiant(512, costs); !ok {
		t.Fatal("promote giant failed")
	}
	g = expect("Region.PromoteGiant", "PromoteGiant", true, g)

	if !r.MigratePT(1) {
		t.Fatal("pt migrate failed")
	}
	g = expect("Region.MigratePT", "MigratePT", true, g)
	if r.MigratePT(1) {
		t.Fatal("no-op pt migrate reported a move")
	}
	g = expect("", "no-op MigratePT", false, g)

	// Batched allocation commits (DESIGN.md §4.11): a k-touch fault run
	// bumps the generation once per established mapping, and a hit run on
	// the pages it just mapped bumps nothing.
	batch := []uint32{4 * vm.SubsPerChunk, 4*vm.SubsPerChunk + 1, 4*vm.SubsPerChunk + 2}
	r.ApplyAllocFault4KRun(0, 0, 0, batch, len(batch), 0)
	g = expect("Region.ApplyAllocFault4KRun", "batched 4K fault run", true, g)
	r.ApplyAllocHitRun(0, batch, len(batch))
	g = expect("", "batched hit run", false, g)

	if freed := r.Unmap(0, 8<<20); freed == 0 {
		t.Fatal("unmap freed nothing")
	}
	g = expect("Region.Unmap", "Unmap", true, g)
	if freed := r.Unmap(0, 8<<20); freed != 0 {
		t.Fatal("double unmap freed bytes")
	}
	expect("", "no-op Unmap", false, g)

	// Sync with the static classification: every exported mutator the
	// genbump analyzer sees must be exercised above, and vice versa.
	mutators, nonBumping, err := analyzers.GenBumpSurvey(".")
	if err != nil {
		t.Fatalf("GenBumpSurvey: %v", err)
	}
	for _, m := range mutators {
		if !exercised[m] {
			t.Errorf("exported mutator %s bumps Gen but is not exercised by this test; add a step for it", m)
		}
	}
	for _, m := range nonBumping {
		reason, ok := analyzers.GenBumpAllowlist[m]
		if !ok {
			t.Errorf("exported method %s writes mapping-observable state without bumping Gen and is not allowlisted", m)
			continue
		}
		if !exercised[m] {
			t.Errorf("allowlisted method %s (%s) is not exercised by this test", m, reason)
		}
	}
	static := map[string]bool{}
	for _, m := range mutators {
		static[m] = true
	}
	for _, m := range nonBumping {
		static[m] = true
	}
	var stale []string
	for m := range exercised {
		if !static[m] {
			stale = append(stale, m)
		}
	}
	sort.Strings(stale)
	for _, m := range stale {
		t.Errorf("test exercises %s but the static survey no longer classifies it as an observable mutator; drop or rename the step", m)
	}
	for m := range analyzers.GenBumpAllowlist {
		if !static[m] {
			t.Errorf("GenBumpAllowlist entry %s matches no method in vm; delete the stale entry", m)
		}
	}
}
