package policy_test

// Gate equivalence for due-gated hooks (DESIGN.md §4.11). EveryDue's
// contract is that a hook whose gate reports false would be a pure
// no-op if it ran anyway — that is what lets Pipeline.NextDaemonDue
// drop gated-off hooks from the daemon schedule and the engine treat
// the epoch as quiescent. Under sim.Config.Reference, Tick runs every
// gated-off hook regardless, so any gate that hides real work (a
// khugepaged scan that would have promoted, a sampler drain that would
// have migrated) surfaces as a byte difference between the two runs.
// sim's identity harness runs the same cells at several worker counts;
// this test keeps the contract next to the policies it binds.

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// runGated runs one policy on A/UA.B with or without the reference paths.
func runGated(t *testing.T, pol string, mode sim.Mode, reference bool) sim.Result {
	t.Helper()
	spec, err := workloads.ByName("UA.B")
	if err != nil {
		t.Fatal(err)
	}
	os, err := policy.ByName(pol)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := os.(*policy.Pipeline); !ok {
		t.Fatalf("policy %s is not a Pipeline; Reference cannot force its gated hooks", pol)
	}
	cfg := sim.DefaultConfig()
	cfg.WorkScale = 0.05
	cfg.Mode = mode
	cfg.Reference = reference
	eng, err := sim.New(topo.MachineA(), spec, os, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.TimedOut {
		t.Fatalf("%s timed out", pol)
	}
	return res
}

// TestGatedHooksAreNoOpsWhenNotDue proves the EveryDue contract for
// every registered policy in both engine modes: running gated-off hooks
// changes nothing, byte for byte.
func TestGatedHooksAreNoOpsWhenNotDue(t *testing.T) {
	for _, pol := range policy.Names() {
		pol := pol
		for _, mode := range []sim.Mode{sim.ModeAnalytic, sim.ModeSampled} {
			mode := mode
			t.Run(pol+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				ref := runGated(t, pol, mode, true)
				got := runGated(t, pol, mode, false)
				if got != ref {
					t.Errorf("skipping gated-off hooks changed the result:\n optimized: %+v\n reference: %+v", got, ref)
				}
			})
		}
	}
}
