package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPhasesTileTheRun pins that the run's phases tile it: with tracking
// on, the PhaseWall slots of one New + Run together account for the
// host wall time around those two calls, up to the few statements
// between the calls and the clock's boundaries. The cell fires events,
// allocates and ticks daemons, so every epoch phase does real work. Not
// parallel: the totals are process-wide, and a sequential test runs
// before any parallel test body resumes.
func TestPhasesTileTheRun(t *testing.T) {
	spec := churnTimeline()
	pol, err := policy.ByName("CarrefourLP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WorkScale = 2
	sim.ResetPhaseWall()
	sim.SetPhaseTracking(true)
	defer sim.SetPhaseTracking(false)

	start := time.Now()
	eng, err := sim.New(topo.MachineA(), spec, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	wall := time.Since(start).Seconds()
	pw := sim.PhaseWallSnapshot()

	if eng.Workload().NextEventBoundary() != 0 || res.FaultCounts == [3]uint64{} || res.DaemonOverheadCycles == 0 {
		t.Fatalf("cell does not fire every event, allocate and tick daemons: %+v", res)
	}
	sum := 0.0
	v := reflect.ValueOf(pw)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i).Float()
		if f <= 0 {
			t.Errorf("%s = %v, want > 0", v.Type().Field(i).Name, f)
		}
		sum += f
	}
	t.Logf("wall %.3fs, phases %.3fs (%.2f%%): %+v", wall, sum, 100*sum/wall, pw)
	if sum > wall || sum < 0.95*wall {
		t.Fatalf("phases sum to %.6fs of %.6fs wall; want between 95%% and 100%%", sum, wall)
	}
}
