// Package lpnuma is the public API of the reproduction of "Large Pages
// May Be Harmful on NUMA Systems" (Gaud et al., USENIX ATC 2014).
//
// It exposes the simulated NUMA machines, the paper's benchmark suite,
// the OS policies under study (default Linux, Transparent Huge Pages,
// Carrefour, and the paper's contribution Carrefour-LP), a deterministic
// simulation runner, and the regeneration harness for every table and
// figure in the paper's evaluation.
//
// Quick start:
//
//	res, err := lpnuma.Run(lpnuma.Request{
//		Machine:  "A",
//		Workload: "CG.D",
//		Policy:   lpnuma.PolicyCarrefourLP,
//		Seed:     1,
//	})
//
// Everything is deterministic: equal (machine, workload, policy, seed)
// inputs produce identical results.
package lpnuma

import (
	"context"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// Policy names accepted by Request.Policy: the paper's seven
// configurations, plus the beyond-the-paper page-table placement and
// page-size-ladder pipelines (priced under NUMA-aware page tables; see
// DESIGN.md §2.5 — they are comparable with each other, not with the
// location-blind paper policies).
const (
	PolicyLinux4K      = "Linux4K"
	PolicyTHP          = "THP"
	PolicyCarrefour2M  = "Carrefour2M"
	PolicyConservative = "Conservative"
	PolicyReactive     = "Reactive"
	PolicyCarrefourLP  = "CarrefourLP"
	PolicyHugeTLB1G    = "HugeTLB1G"
	PolicyPTBaseline   = "PTBaseline"
	PolicyMitosisPTR   = "MitosisPTR"
	PolicyNumaPTEMig   = "NumaPTEMig"
	PolicyTridentLP    = "TridentLP"
)

// Request names one simulation; see runner.Request.
type Request = runner.Request

// Result is the outcome of one simulation; see sim.Result.
type Result = sim.Result

// Config tunes the engine; see sim.Config.
type Config = sim.Config

// Mode selects the engine's steady-state pricing implementation; see
// sim.Mode and DESIGN.md §4.7.
type Mode = sim.Mode

// The available pricing modes: ModeSampled is the Monte-Carlo loop the
// paper sections regenerate under by default; ModeAnalytic is the
// closed-form expectation engine that makes full-scale machine-B sweeps
// interactive (statistically equivalent, test-enforced).
const (
	ModeSampled  = sim.ModeSampled
	ModeAnalytic = sim.ModeAnalytic
)

// ParseMode resolves a mode name ("sampled" or "analytic"), as the CLI's
// -mode flag spells them.
func ParseMode(s string) (Mode, error) { return sim.ParseMode(s) }

// DefaultConfig returns the evaluation's engine calibration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run executes one simulation.
func Run(req Request) (Result, error) { return runner.Run(req) }

// RunContext executes one simulation, aborting between epochs when ctx
// is canceled.
func RunContext(ctx context.Context, req Request) (Result, error) {
	return runner.RunContext(ctx, req)
}

// RunAll executes many simulations on a fresh Scheduler sized to the
// host's CPU count, so identical requests run once, and returns the
// results in request order; the first error in request order aborts.
func RunAll(reqs []Request) ([]Result, error) {
	res, _, err := runcache.New(0).Results(reqs)
	return res, err
}

// EpochBenchResult reports per-epoch pricing times; see
// sim.EpochBenchResult.
type EpochBenchResult = sim.EpochBenchResult

// BenchAnalyticEpoch times one steady-state pricing epoch of the named
// cell in analytic mode, both with full recomputation (the DESIGN.md
// §4.7 baseline) and through the §4.10 quiescent fast path. lpbench
// records the two as its sim.epoch_full_us and sim.epoch_quiet_us
// metrics.
func BenchAnalyticEpoch(machineName, workload, policyName string, cfg Config, reps int) (EpochBenchResult, error) {
	cfg.Mode = ModeAnalytic
	eng, err := runner.NewEngine(Request{Machine: machineName, Workload: workload, Policy: policyName, Cfg: &cfg})
	if err != nil {
		return EpochBenchResult{}, err
	}
	return eng.BenchAnalyticEpoch(reps)
}

// PhaseWall is the cumulative host wall time per run phase: setup, the
// eight epoch phases and finalize, which together tile every run; see
// sim.PhaseWall.
type PhaseWall = sim.PhaseWall

// SetPhaseTracking turns process-wide per-phase wall accumulation on or
// off (lpbench enables it for the sim.*_s phase breakdown it reports).
func SetPhaseTracking(on bool) { sim.SetPhaseTracking(on) }

// SetPhaseLabels turns pprof goroutine labels at run-phase boundaries
// on or off (the -cpuprofile flag enables them, so profiles can be
// sliced with -tagfocus lpnuma_phase=setup|events|snapshot|alloc|census|
// steady-price|merge|end-epoch|daemon|finalize).
func SetPhaseLabels(on bool) { sim.SetPhaseLabels(on) }

// ResetPhaseWall zeroes the per-phase wall totals.
func ResetPhaseWall() { sim.ResetPhaseWall() }

// PhaseWallSnapshot returns the accumulated per-phase wall seconds.
func PhaseWallSnapshot() PhaseWall { return sim.PhaseWallSnapshot() }

// ImprovementPct is the paper's performance metric: percent improvement
// of x over baseline.
func ImprovementPct(baseline, x Result) float64 { return runner.ImprovementPct(baseline, x) }

// MachineA returns the paper's machine A (4 NUMA nodes, 24 cores, 64 GB).
func MachineA() *topo.Machine { return topo.MachineA() }

// MachineB returns the paper's machine B (8 NUMA nodes, 64 cores, 512 GB).
func MachineB() *topo.Machine { return topo.MachineB() }

// Workloads lists the benchmark names of the paper's suite (plus
// streamcluster for the 1 GB-page study).
func Workloads() []string { return workloads.Names() }

// Policies lists the available OS policy names.
func Policies() []string { return policy.Names() }

// Experiments lists the regenerable table/figure identifiers.
func Experiments() []string { return experiments.IDs() }

// ExperimentConfig parameterizes a regeneration pass.
type ExperimentConfig = experiments.Config

// ExperimentResult is one regenerated experiment; see experiments.Result.
type ExperimentResult = experiments.Result

// RunExperiment regenerates one of the paper's tables or figures by id
// ("fig1".."fig5", "table1".."table3", "overhead", "verylarge") and
// returns its rendered text plus the indexed numeric values.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.ByID(id, cfg)
}

// Scheduler is the shared concurrent sweep engine: it deduplicates
// identical (machine, workload, policy, seed, config) cells against a
// content-addressed cache and executes each unique cell once on a
// bounded worker pool. See runcache.Scheduler.
type Scheduler = runcache.Scheduler

// SweepStats describes one batch's cache behaviour; see runcache.Stats.
type SweepStats = runcache.Stats

// NewScheduler builds a sweep scheduler running at most workers
// simulations concurrently (workers <= 0 selects the host's CPU count).
func NewScheduler(workers int) *Scheduler { return runcache.New(workers) }

// Store is the persistent crash-safe cell cache: a checksummed
// append-log answering repeat simulations across processes. See
// runcache.Store.
type Store = runcache.Store

// OpenStore opens or creates the persistent cell cache at path,
// recovering every valid record and truncating any torn tail. Attach
// it to a scheduler with Scheduler.SetStore.
func OpenStore(path string) (*Store, error) { return runcache.OpenStore(path) }

// RunExperimentWith regenerates one experiment through a shared
// scheduler, reusing any cells earlier experiments already simulated.
func RunExperimentWith(s *Scheduler, id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.ByIDWith(s, id, cfg)
}

// RunExperimentContext is RunExperimentWith with cancellation:
// canceling ctx aborts the experiment's in-flight simulations and
// returns the context's error; cells completed before the cancellation
// stay cached.
func RunExperimentContext(ctx context.Context, s *Scheduler, id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return experiments.ByIDContext(ctx, s, id, cfg)
}

// RunAllExperiments regenerates every experiment through one shared
// scheduler (a fresh host-sized one when s is nil): the union of all
// declared cells runs exactly once, and each result reports its
// cache-hit/run counts.
func RunAllExperiments(s *Scheduler, cfg ExperimentConfig) ([]ExperimentResult, error) {
	return experiments.All(s, cfg)
}
