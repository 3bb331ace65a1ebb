package runcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fakeRunner counts executions per key and returns a result encoding the
// request, so tests can verify fan-out without paying for simulations.
type fakeRunner struct {
	mu    sync.Mutex
	count map[Key]int
}

func newFakeRunner() *fakeRunner { return &fakeRunner{count: map[Key]int{}} }

func (f *fakeRunner) run(_ context.Context, req runner.Request) (sim.Result, error) {
	f.mu.Lock()
	f.count[KeyOf(req)]++
	f.mu.Unlock()
	if req.Workload == "boom" {
		return sim.Result{}, errors.New("synthetic failure")
	}
	return sim.Result{
		Machine:        req.Machine,
		Workload:       req.Workload,
		Policy:         req.Policy,
		RuntimeSeconds: float64(len(req.Machine)+len(req.Workload)+len(req.Policy)) + float64(req.Seed),
	}, nil
}

func (f *fakeRunner) executions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.count {
		n += c
	}
	return n
}

func req(m, w, p string, seed uint64) runner.Request {
	return runner.Request{Machine: m, Workload: w, Policy: p, Seed: seed}
}

func TestKeyNormalization(t *testing.T) {
	// Machine-name case is normalized, as runner.MachineByName accepts both.
	if KeyOf(req("a", "CG.D", "THP", 1)) != KeyOf(req("A", "CG.D", "THP", 1)) {
		t.Error("machine-name case should not change the key")
	}
	// The runner's seed-override rule: Request.Seed wins over Cfg.Seed, and
	// a zero Request.Seed falls back to the config's seed.
	cfg := sim.DefaultConfig()
	cfg.Seed = 7
	viaCfg := runner.Request{Machine: "A", Workload: "CG.D", Policy: "THP", Cfg: &cfg}
	viaReq := req("A", "CG.D", "THP", 7)
	if KeyOf(viaCfg) != KeyOf(viaReq) {
		t.Error("seed via config and seed via request should address the same cell")
	}
	if KeyOf(req("A", "CG.D", "THP", 1)) == KeyOf(req("A", "CG.D", "THP", 2)) {
		t.Error("different seeds must address different cells")
	}
	scaled := sim.DefaultConfig()
	scaled.WorkScale = 0.5
	if KeyOf(runner.Request{Machine: "A", Workload: "CG.D", Policy: "THP", Seed: 1, Cfg: &scaled}) ==
		KeyOf(req("A", "CG.D", "THP", 1)) {
		t.Error("different configurations must address different cells")
	}
}

// The exhaustive field-coverage guard for sim.Config.Hash lives in
// keyhash_test.go (TestKeyCoversEveryConfigField): it walks sim.Config
// by reflection at the KeyOf level, so both the hash and the
// seed-normalization path are covered, and asserts the pool and the
// reference switch stay excluded.

func TestIdenticalCellsRunOnce(t *testing.T) {
	fake := newFakeRunner()
	s := New(4)
	s.run = fake.run

	batch := []runner.Request{
		req("A", "CG.D", "THP", 1),
		req("A", "CG.D", "Linux4K", 1),
		req("A", "CG.D", "THP", 1), // intra-batch duplicate
		req("a", "CG.D", "THP", 1), // duplicate after normalization
	}
	results, stats, err := s.Results(batch)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Requested: 4, Unique: 2, Hits: 0, Runs: 2}); stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	if fake.executions() != 2 {
		t.Fatalf("executions = %d, want 2", fake.executions())
	}
	if results[0] != results[2] || results[0] != results[3] {
		t.Fatal("duplicate requests should fan out the same result")
	}
	if results[0].Policy != "THP" || results[1].Policy != "Linux4K" {
		t.Fatalf("results out of request order: %+v", results[:2])
	}

	// A second batch overlapping the first must be answered from cache.
	_, stats, err = s.Results([]runner.Request{
		req("A", "CG.D", "THP", 1),
		req("B", "CG.D", "THP", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Requested: 2, Unique: 2, Hits: 1, Runs: 1}); stats != want {
		t.Fatalf("second batch stats = %+v, want %+v", stats, want)
	}
	if fake.executions() != 3 {
		t.Fatalf("executions after second batch = %d, want 3", fake.executions())
	}
	if tot := s.Totals(); tot.Requested != 6 || tot.Runs != 3 || tot.Hits != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if s.CachedCells() != 3 {
		t.Fatalf("cached cells = %d, want 3", s.CachedCells())
	}
}

func TestResultsDeterministicAcrossWorkerCounts(t *testing.T) {
	batch := func() []runner.Request {
		var reqs []runner.Request
		for _, m := range []string{"A", "B"} {
			for _, w := range []string{"w1", "w2", "w3", "w4"} {
				for _, p := range []string{"p1", "p2", "p3"} {
					reqs = append(reqs, req(m, w, p, 1))
				}
			}
		}
		return reqs
	}
	run := func(workers int) []sim.Result {
		s := New(workers)
		s.run = newFakeRunner().run
		results, _, err := s.Results(batch())
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	r1, r8 := run(1), run(8)
	for i := range r1 {
		if r1[i] != r8[i] {
			t.Fatalf("result %d differs between -j 1 and -j 8: %+v vs %+v", i, r1[i], r8[i])
		}
	}
}

func TestErrorAbortsInRequestOrder(t *testing.T) {
	fake := newFakeRunner()
	s := New(2)
	s.run = fake.run
	_, _, err := s.Results([]runner.Request{
		req("A", "ok", "THP", 1),
		req("A", "boom", "THP", 1),
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("error not propagated: %v", err)
	}
	// Failed cells are evicted, never served as cached outcomes: a
	// retry re-executes the cell (and here fails afresh), while the
	// batch's successful cell stays cached.
	before := fake.executions()
	_, _, err = s.Results([]runner.Request{req("A", "boom", "THP", 1)})
	if err == nil {
		t.Fatal("retried failure should fail again")
	}
	if fake.executions() != before+1 {
		t.Fatalf("failed cell should re-execute on retry: %d executions, want %d", fake.executions(), before+1)
	}
	if _, _, err := s.Results([]runner.Request{req("A", "ok", "THP", 1)}); err != nil {
		t.Fatalf("successful cell from the aborted batch should stay cached: %v", err)
	}
	if got := fake.count[KeyOf(req("A", "ok", "THP", 1))]; got != 1 {
		t.Fatalf("successful cell executed %d times, want 1", got)
	}
}

// TestCellErrorsStayMatchable: the scheduler's per-cell wrapping must
// preserve errors.Is, so callers (the serve layer's 400 mapping) can
// still match runner sentinels through the chain.
func TestCellErrorsStayMatchable(t *testing.T) {
	s := New(1)
	_, _, err := s.Results([]runner.Request{req("A", "no-such-benchmark", "THP", 1)})
	if !errors.Is(err, workloads.ErrUnknownWorkload) {
		t.Fatalf("wrapped cell error = %v, want errors.Is ErrUnknownWorkload", err)
	}
}

func TestProgressReportsEveryRun(t *testing.T) {
	fake := newFakeRunner()
	s := New(3)
	s.run = fake.run
	var mu sync.Mutex
	var calls []int
	s.Progress = func(done, total int, key Key) {
		mu.Lock()
		defer mu.Unlock()
		if total != 5 {
			t.Errorf("total = %d, want 5", total)
		}
		calls = append(calls, done)
	}
	var reqs []runner.Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, req("A", fmt.Sprintf("w%d", i), "THP", 1))
	}
	if _, _, err := s.Results(reqs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 {
		t.Fatalf("progress calls = %d, want 5", len(calls))
	}
	seen := map[int]bool{}
	for _, d := range calls {
		seen[d] = true
	}
	for d := 1; d <= 5; d++ {
		if !seen[d] {
			t.Fatalf("progress never reported done=%d (calls %v)", d, calls)
		}
	}
}

// TestRealRunnerSmoke exercises the default runner path once, so the
// package is tested against the real engine, not only the fake.
func TestRealRunnerSmoke(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WorkScale = 0.02
	s := New(2)
	r := runner.Request{Machine: "A", Workload: "EP.C", Policy: "Linux4K", Seed: 1, Cfg: &cfg}
	results, stats, err := s.Results([]runner.Request{r, r})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || results[0] != results[1] {
		t.Fatalf("dedup against real runner failed: stats %+v", stats)
	}
	direct, err := runner.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].RuntimeSeconds != direct.RuntimeSeconds {
		t.Fatalf("cached result diverged from direct run: %v vs %v",
			results[0].RuntimeSeconds, direct.RuntimeSeconds)
	}
}
