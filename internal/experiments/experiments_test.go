package experiments

import (
	"strings"
	"testing"

	"repro/internal/runcache"
)

// quick is a fast configuration for experiment-shape tests.
var quick = Config{Seed: 1, WorkScale: 0.03}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig9", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("experiments = %d, want 13 (5 figures, 3 tables, overhead, verylarge, beyond, dynamic, fullscale)", len(ids))
	}
	for _, id := range ids {
		found := false
		for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3", "overhead", "verylarge", "beyond", "dynamic", "fullscale"} {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected experiment id %q", id)
		}
	}
}

// TestBeyondShape asserts the beyond section covers all three
// beyond-the-paper policies on both machines with deterministic
// improvement values over the PTBaseline control.
func TestBeyondShape(t *testing.T) {
	res, err := ByID("beyond", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"machine A", "machine B", "MitosisPTR", "NumaPTEMig", "TridentLP", "PTBaseline"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("beyond section missing %q:\n%s", want, res.Text)
		}
	}
	for _, m := range []string{"A", "B"} {
		for _, p := range []string{"MitosisPTR", "NumaPTEMig", "TridentLP"} {
			if _, ok := res.Values[m+"/CG.D/"+p+"/beyond-improvement"]; !ok {
				t.Fatalf("missing beyond-improvement for %s/%s", m, p)
			}
		}
	}
	// Replicated page tables never pay a remote walk, so on the
	// TLB-pressured SSCA workload Mitosis must not lose to first-touch
	// page tables by more than noise.
	if v := res.Values["A/SSCA.20/MitosisPTR/beyond-improvement"]; v < -2 {
		t.Fatalf("MitosisPTR loses %.1f%% on SSCA.20/A, want >= -2", v)
	}
}

// TestDynamicShape asserts the dynamic section's headline claim: under
// mid-run churn, at least one contiguity-dependent policy measurably
// loses the improvement the static suite credits it with, and the
// fragmentation pair (WC → WC.churn) strips the huge-page win from
// every THP-family policy.
func TestDynamicShape(t *testing.T) {
	res, err := ByID("dynamic", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WC.churn", "CG.shift", "delta", "TridentLP"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("dynamic section missing %q:\n%s", want, res.Text)
		}
	}
	// The contiguity collapse: tearing down the arena leaves free bytes
	// but no 2 MB blocks, so THP and Trident lose most of the static
	// suite's huge-page improvement (the acceptance cell).
	for _, p := range []string{"THP", "TridentLP"} {
		delta, ok := res.Values["A/WC.churn/"+p+"/dynamic-delta"]
		if !ok {
			t.Fatalf("missing dynamic-delta for %s", p)
		}
		if delta > -10 {
			t.Fatalf("%s on WC.churn loses only %.1f points vs static WC, want a ≥10-point regression", p, delta)
		}
	}
	// The shift pair penalizes the one-shot interleaving policy but must
	// not invent a huge-page win for it.
	if _, ok := res.Values["A/CG.shift/CarrefourLP/dynamic-delta"]; !ok {
		t.Fatal("missing CG.shift delta for CarrefourLP")
	}
}

func TestVeryLargeShape(t *testing.T) {
	res, err := ByID("verylarge", quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "SSCA.20") || !strings.Contains(res.Text, "streamcluster") {
		t.Fatalf("missing rows:\n%s", res.Text)
	}
	for _, w := range []string{"SSCA.20", "streamcluster"} {
		slow, ok := res.Values["A/"+w+"/1g-slowdown"]
		if !ok {
			t.Fatalf("missing slowdown value for %s", w)
		}
		// §4.4: 1 GB pages must degrade both applications.
		if slow <= 1.0 {
			t.Fatalf("%s: 1G slowdown = %.2fx, want > 1", w, slow)
		}
	}
	// Everything coalesces on one node: imbalance at the 4-node maximum.
	for _, w := range []string{"SSCA.20", "streamcluster"} {
		if imb := res.Values["A/"+w+"/HugeTLB1G/imbalance"]; imb < 150 {
			t.Fatalf("%s: 1G imbalance = %.1f, want ≈173 (single hot node)", w, imb)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := ByID("table2", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SPECjbb", "CG.D", "UA.B", "PAMUP", "NHP", "PSP", "Imbalance", "LAR"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, res.Text)
		}
	}
	// The hot-page effect: CG.D has no hot pages under 4K pages and
	// several under THP (paper: 0 → 3).
	if res.Values["A/CG.D/Linux4K/nhp"] != 0 {
		t.Fatalf("CG.D NHP under Linux = %v, want 0", res.Values["A/CG.D/Linux4K/nhp"])
	}
	if res.Values["A/CG.D/THP/nhp"] < 1 {
		t.Fatalf("CG.D NHP under THP = %v, want ≥1", res.Values["A/CG.D/THP/nhp"])
	}
	// Page-level false sharing: UA.B's PSP must jump under THP.
	if res.Values["A/UA.B/THP/psp"] < res.Values["A/UA.B/Linux4K/psp"]+20 {
		t.Fatalf("UA.B PSP: Linux %v THP %v, want a large jump",
			res.Values["A/UA.B/Linux4K/psp"], res.Values["A/UA.B/THP/psp"])
	}
}

// TestDeclareMatchesRun asserts declarations are complete: an experiment
// rendered from only its declared cells must not hit a zero-value result.
func TestDeclareMatchesRun(t *testing.T) {
	for _, id := range IDs() {
		reqs, err := Declare(id, quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) == 0 {
			t.Fatalf("%s declares no cells", id)
		}
		for _, r := range reqs {
			if r.Machine == "" || r.Workload == "" || r.Policy == "" {
				t.Fatalf("%s declares an incomplete cell: %+v", id, r)
			}
		}
	}
}

// TestSharedSchedulerReusesCells asserts the cross-experiment dedup the
// shared scheduler exists for: fig3's cells overlap fig2's (same
// machines, same reduced set, shared Linux4K and THP columns), so run
// through one scheduler the second experiment must report cache hits and
// trigger strictly fewer fresh simulations than it declares.
func TestSharedSchedulerReusesCells(t *testing.T) {
	sched := runcache.New(0)
	fig2, err := ByIDWith(sched, "fig2", quick)
	if err != nil {
		t.Fatal(err)
	}
	if fig2.Sweep.Hits != 0 || fig2.Sweep.Runs != fig2.Sweep.Unique {
		t.Fatalf("first experiment should be all fresh runs: %+v", fig2.Sweep)
	}
	fig3, err := ByIDWith(sched, "fig3", quick)
	if err != nil {
		t.Fatal(err)
	}
	if fig3.Sweep.Hits == 0 {
		t.Fatalf("fig3 after fig2 should hit the cache: %+v", fig3.Sweep)
	}
	if fig3.Sweep.Runs >= fig3.Sweep.Unique {
		t.Fatalf("fig3 should run fewer cells than it declares: %+v", fig3.Sweep)
	}
	// Re-running fig2 must simulate nothing at all.
	again, err := ByIDWith(sched, "fig2", quick)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sweep.Runs != 0 {
		t.Fatalf("re-run should be 100%% cached: %+v", again.Sweep)
	}
	if again.Text != fig2.Text {
		t.Fatal("cached re-run rendered different text")
	}
}

// TestOutputIdenticalAcrossWorkerCounts asserts the acceptance
// criterion: experiment output is byte-identical for any -j.
func TestOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	ids := []string{"fig5", "table2", "verylarge", "beyond", "dynamic"}
	render := func(workers int) string {
		sched := runcache.New(workers)
		var b strings.Builder
		for _, id := range ids {
			res, err := ByIDWith(sched, id, quick)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(res.Text)
		}
		return b.String()
	}
	if j1, j8 := render(1), render(8); j1 != j8 {
		t.Fatal("-j 1 and -j 8 rendered different output")
	}
}

// TestAllSharesOneMatrix asserts the full pass deduplicates across
// experiments: the total fresh simulations must be well below the total
// declared cells, and every experiment after the first figure sees hits.
func TestAllSharesOneMatrix(t *testing.T) {
	sched := runcache.New(0)
	results, err := All(sched, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d, want %d", len(results), len(IDs()))
	}
	tot := sched.Totals()
	if tot.Runs != sched.CachedCells() {
		t.Fatalf("runs %d != cached cells %d", tot.Runs, sched.CachedCells())
	}
	// The reuse ratio is asserted over the quick-pass sections only:
	// fullscale runs its own (scale 1.0, analytic) configuration, so its
	// cells are unshareable by design and would dilute the ratio.
	runs, requested := tot.Runs, tot.Requested
	for _, res := range results {
		if res.ID == "fullscale" {
			runs -= res.Sweep.Runs
			requested -= res.Sweep.Requested
		}
	}
	if runs >= requested/2 {
		t.Fatalf("expected >2x cross-experiment reuse: %d runs for %d declared cells", runs, requested)
	}
	var hits int
	for _, res := range results {
		hits += res.Sweep.Hits
	}
	if hits == 0 {
		t.Fatal("no experiment reported cache hits")
	}
	// ByID must agree with the shared-scheduler pass (same cells, same
	// deterministic engine), so sharing cannot change any experiment.
	solo, err := ByID("table3", quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.ID == "table3" && res.Text != solo.Text {
			t.Fatal("shared-scheduler table3 differs from standalone run")
		}
	}
}
