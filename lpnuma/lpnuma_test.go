package lpnuma

import (
	"testing"
)

func TestSurfaceLists(t *testing.T) {
	if len(Workloads()) != 22 {
		t.Fatalf("workloads = %d, want 22 (20 static + 2 dynamic)", len(Workloads()))
	}
	if len(Policies()) != 11 {
		t.Fatalf("policies = %d, want 11 (7 paper + 4 beyond)", len(Policies()))
	}
	if len(Experiments()) != 13 {
		t.Fatalf("experiments = %d, want 13", len(Experiments()))
	}
}

func TestMachines(t *testing.T) {
	if MachineA().TotalCores() != 24 || MachineB().TotalCores() != 64 {
		t.Fatal("machine definitions changed")
	}
}

func TestRunRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.02
	res, err := Run(Request{Machine: "A", Workload: "Kmeans", Policy: PolicyTHP, Seed: 1, Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "Kmeans" || res.Policy != "THP" {
		t.Fatalf("labels: %+v", res)
	}
	base, err := Run(Request{Machine: "A", Workload: "Kmeans", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	_ = ImprovementPct(base, res) // must not panic
}

// TestRunAllMatchesSequential: the scheduler-backed batch returns, in
// request order, exactly the Result a sequential Run of each request
// returns — duplicates included.
func TestRunAllMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.02
	reqs := []Request{
		{Machine: "A", Workload: "EP.C", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg},
		{Machine: "A", Workload: "EP.C", Policy: PolicyTHP, Seed: 1, Cfg: &cfg},
		{Machine: "A", Workload: "EP.C", Policy: PolicyLinux4K, Seed: 1, Cfg: &cfg},
	}
	par, err := RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(reqs) {
		t.Fatalf("RunAll returned %d results for %d requests", len(par), len(reqs))
	}
	for i, req := range reqs {
		seq, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] != seq {
			t.Fatalf("batched run %d diverged from sequential:\n batch: %+v\n seq:   %+v", i, par[i], seq)
		}
	}
	if _, err := RunAll([]Request{{Machine: "A", Workload: "nope", Policy: PolicyTHP}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchAnalyticEpoch: the epoch harness behind lpbench's
// sim.epoch_full_us and sim.epoch_quiet_us prices every thread of the
// cell in both variants and reports positive per-epoch times.
func TestBenchAnalyticEpoch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorkScale = 0.05
	eb, err := BenchAnalyticEpoch("B", "CG.D", PolicyPTBaseline, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Threads != MachineB().TotalCores() || eb.FullSeconds <= 0 || eb.QuiescentSeconds <= 0 {
		t.Fatalf("implausible epoch timings: %+v", eb)
	}
	if _, err := BenchAnalyticEpoch("B", "CG.D", "NoSuchPolicy", cfg, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
