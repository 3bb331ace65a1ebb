// Command lpnuma regenerates the paper's experiments and runs individual
// simulations.
//
// Usage:
//
//	lpnuma list                         # benchmarks, policies, experiments
//	lpnuma run -m A -w CG.D -p THP      # one simulation, metrics to stdout
//	lpnuma run -w CG.D,UA.B -p all      # several cells, one table row each
//	lpnuma experiment fig1 [-scale 0.3] # regenerate a figure or table
//	lpnuma all [-scale 0.3] [-j 8]      # regenerate everything (EXPERIMENTS.md source)
//	lpnuma serve [-addr :8080]          # HTTP/JSON simulation daemon
//
// Performance is measured outside this command: the lpbench harness
// (bash lpbench/run.sh) times end-to-end passes and daemon requests,
// and `go test -bench` covers the engine's hot paths.
//
// The experiment and all subcommands share one sweep scheduler: the
// union of every requested cell is deduplicated and each unique
// (machine, workload, policy, seed, config) simulation runs exactly once
// on a worker pool of -j goroutines. Output is identical for any -j;
// progress goes to stderr so stdout stays a clean report.
//
// Sweeping subcommands accept -cache <file>: completed cells append to
// a crash-safe log there and later passes (or the daemon) answer from
// it without re-simulating. SIGINT/SIGTERM interrupt a pass gracefully:
// in-flight cells stop between epochs, completed cells are already on
// disk, and the pass reports what it finished before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vm"
	"repro/lpnuma"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands; it is main minus os.Exit so tests can
// drive it.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(lpnuma.Workloads(), " "))
		fmt.Fprintln(stdout, "policies:  ", strings.Join(lpnuma.Policies(), " "))
		fmt.Fprintln(stdout, "experiments:", strings.Join(lpnuma.Experiments(), " "))
		return 0
	case "run":
		return exitCode(runOne(args[1:], stdout, stderr), stderr)
	case "experiment":
		if len(args) >= 2 && (args[1] == "-h" || args[1] == "-help" || args[1] == "--help") {
			_, err := parseExperimentFlags(args[1:], stderr)
			return exitCode(err, stderr)
		}
		if len(args) < 2 || strings.HasPrefix(args[1], "-") {
			fmt.Fprintln(stderr, "experiment requires an id; see `lpnuma list`")
			return 2
		}
		return exitCode(runExperiments(args[2:], stdout, stderr, args[1]), stderr)
	case "all":
		return exitCode(runExperiments(args[1:], stdout, stderr, lpnuma.Experiments()...), stderr)
	case "serve":
		return exitCode(runServe(args[1:], stderr), stderr)
	default:
		usage(stderr)
		return 2
	}
}

// errFlagParse marks flag-set parse failures the flag package has
// already reported to stderr (message plus usage), so run must not
// print them a second time.
var errFlagParse = errors.New("flag parse error")

// exitCode maps a subcommand's error to its exit status: -h/-help is a
// successful exit after the flag package printed the defaults, and parse
// errors were already reported.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagParse):
		return 2
	default:
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
}

// parseFlags runs fs.Parse with errors and -h output routed to stderr.
// No subcommand takes positional arguments after its flags, so stray
// ones are a usage error too: a silently ignored `run B UA.B Linux4K`
// would print the default cell as if it were the answer.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errFlagParse
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return errFlagParse
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lpnuma {list|run|experiment <id>|all|serve} [flags]")
}

// profileFlags are the -cpuprofile/-memprofile options every simulating
// subcommand registers, so the hot-path numbers in README/DESIGN are
// reproducible from the shipped binary (`lpnuma all -mode analytic
// -cpuprofile cpu.pprof`, then `go tool pprof`).
type profileFlags struct {
	cpu, mem string
}

// register installs the flags on a subcommand's flag set.
func (p *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file at exit")
}

// start begins CPU profiling when requested and returns the stop
// function to defer; stop also writes the heap profile.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		cpuFile, err = os.Create(p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
		// Tag engine goroutines with their current epoch phase so the
		// profile can be sliced per phase:
		//   go tool pprof -tagfocus=lpnuma_phase=alloc cpu.pprof
		sim.SetPhaseLabels(true)
	}
	return func() error {
		if cpuFile != nil {
			sim.SetPhaseLabels(false)
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.mem != "" {
			memFile, err := os.Create(p.mem)
			if err != nil {
				return err
			}
			defer memFile.Close()
			runtime.GC() // materialize accurate live-heap statistics
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// parseMode resolves a -mode flag value, reporting errors like the flag
// package does (exit 2 via errFlagParse).
func parseMode(value string, stderr io.Writer) (sim.Mode, error) {
	mode, err := sim.ParseMode(value)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return mode, errFlagParse
	}
	return mode, nil
}

// runOne is the run subcommand. -m, -w and -p take comma lists or
// "all": one cell prints its metrics block plus the per-node controller
// load and per-region placement; several cells run through
// lpnuma.RunAll and print one table row each.
func runOne(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	machines := fs.String("m", "A", "machines, comma-separated (A, B or all)")
	wls := fs.String("w", "CG.D", "benchmarks, comma-separated (or all)")
	pols := fs.String("p", "THP", "policies, comma-separated (or all)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	modeName := fs.String("mode", "sampled", "steady-state pricing engine (sampled or analytic)")
	scale := fs.Float64("scale", 1.0, "work scale (<1 for quicker, noisier passes)")
	var prof profileFlags
	prof.register(fs)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	mode, err := parseMode(*modeName, stderr)
	if err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	cfg := lpnuma.DefaultConfig()
	cfg.Mode = mode
	cfg.WorkScale = *scale
	ms := nameList(*machines, []string{"A", "B"})
	ws := nameList(*wls, lpnuma.Workloads())
	ps := nameList(*pols, lpnuma.Policies())
	var reqs []lpnuma.Request
	for _, m := range ms {
		for _, w := range ws {
			for _, p := range ps {
				reqs = append(reqs, lpnuma.Request{Machine: m, Workload: w, Policy: p, Seed: *seed, Cfg: &cfg})
			}
		}
	}
	if len(reqs) == 1 {
		return printCell(reqs[0], stdout)
	}
	start := time.Now()
	results, err := lpnuma.RunAll(reqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d runs in %v\n\n", len(results), time.Since(start).Round(time.Millisecond))
	printTable(stdout, results, len(ps))
	return nil
}

// nameList expands a comma-separated flag value; "all" names every
// choice.
func nameList(value string, all []string) []string {
	if value == "all" {
		return all
	}
	return strings.Split(value, ",")
}

// printCell runs one cell and prints its metrics, then the per-node
// controller load and each region's node shares and page-table home.
func printCell(req lpnuma.Request, stdout io.Writer) error {
	start := time.Now()
	eng, err := runner.NewEngine(req)
	if err != nil {
		return err
	}
	res := eng.Run()
	fmt.Fprintf(stdout, "%s on machine %s under %s (simulated in %v)\n", res.Workload, res.Machine, res.Policy, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  runtime      %.2fs (%d epochs)\n", res.RuntimeSeconds, res.Epochs)
	fmt.Fprintf(stdout, "  LAR          %.1f%%\n", res.LARPct)
	fmt.Fprintf(stdout, "  imbalance    %.1f%%\n", res.ImbalancePct)
	fmt.Fprintf(stdout, "  L2-PTW share %.1f%%\n", res.PTWSharePct)
	fmt.Fprintf(stdout, "  fault time   %.0fms max-core (%.1f%% of run)\n", res.MaxCoreFaultSeconds*1000, res.MaxFaultSharePct)
	fmt.Fprintf(stdout, "  PAMUP %.1f%%  NHP %d  PSP %.1f%%\n", res.PageMetrics.PAMUPPct, res.PageMetrics.NHP, res.PageMetrics.PSPPct)
	fmt.Fprintf(stdout, "  faults: %d×4K %d×2M %d×1G; IBS samples %d\n", res.FaultCounts[0], res.FaultCounts[1], res.FaultCounts[2], res.IBSSamplesTaken)
	if res.TimedOut {
		fmt.Fprintln(stdout, "  WARNING: simulation hit the time cap before completing")
	}
	phys := eng.Env().Phys
	nodes := eng.Env().Machine.Nodes
	tot := phys.TotalRequests()
	sum := 0.0
	for _, v := range tot {
		sum += v
	}
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(stdout, "  node %d: reqShare %5.1f%%  lat %6.1f  util %5.2f\n",
			n, tot[n]/sum*100, phys.Latency(topo.NodeID(n)), phys.Utilization(topo.NodeID(n)))
	}
	for _, br := range eng.Workload().Regions {
		counts := make([]uint64, nodes)
		var acc uint64
		br.VM.ForEachPage(func(p vm.PageAccess) {
			counts[p.Node] += p.Accesses
			acc += p.Accesses
		})
		fmt.Fprintf(stdout, "  region %-14s accShare-by-node:", br.Spec.Name)
		for _, c := range counts {
			pct := 0.0
			if acc > 0 {
				pct = float64(c) / float64(acc) * 100
			}
			fmt.Fprintf(stdout, " %5.1f", pct)
		}
		fmt.Fprintln(stdout)
		if home, ok := br.VM.PTHome(); ok {
			fmt.Fprintf(stdout, "  region %-14s page tables on node %d (%d bytes)\n", br.Spec.Name, home, br.VM.PTBytes())
		}
	}
	return nil
}

// printTable prints one row per result, in request order; results come
// in groups of perGroup policies over one machine and workload, and
// impr% is against that group's Linux4K cell when the group has one.
func printTable(stdout io.Writer, results []lpnuma.Result, perGroup int) {
	fmt.Fprintf(stdout, "%-16s %-2s %-12s %8s %7s %7s %7s %7s %7s %6s %6s %7s %9s %6s\n",
		"workload", "M", "policy", "runtime", "impr%", "LAR", "imbal", "PTW%", "fault%", "PAMUP", "NHP", "PSP", "faultSec", "epochs")
	for g := 0; g < len(results); g += perGroup {
		group := results[g : g+perGroup]
		var base lpnuma.Result
		for _, r := range group {
			if r.Policy == lpnuma.PolicyLinux4K {
				base = r
				break
			}
		}
		for _, r := range group {
			impr := 0.0
			if base.RuntimeSeconds > 0 {
				impr = lpnuma.ImprovementPct(base, r)
			}
			to := ""
			if r.TimedOut {
				to = " TIMEOUT"
			}
			fmt.Fprintf(stdout, "%-16s %-2s %-12s %7.2fs %+7.1f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %5.1f%% %6d %6.1f%% %8.2fs %6d%s\n",
				r.Workload, r.Machine, r.Policy, r.RuntimeSeconds, impr, r.LARPct, r.ImbalancePct,
				r.PTWSharePct, r.MaxFaultSharePct, r.PageMetrics.PAMUPPct,
				r.PageMetrics.NHP, r.PageMetrics.PSPPct, r.MaxCoreFaultSeconds, r.Epochs, to)
		}
	}
}

// experimentFlags are the parsed options of the experiment/all
// subcommands.
type experimentFlags struct {
	seed    uint64
	scale   float64
	jobs    int
	verbose bool
	out     string
	cache   string
	mode    sim.Mode
	prof    profileFlags
}

// parseExperimentFlags parses the experiment/all flag set.
func parseExperimentFlags(args []string, stderr io.Writer) (experimentFlags, error) {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	f := experimentFlags{}
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&f.scale, "scale", 1.0, "work scale (<1 for quicker, noisier passes)")
	fs.IntVar(&f.jobs, "j", 0, "concurrent simulations (0 = host CPU count)")
	fs.BoolVar(&f.verbose, "v", false, "log each completed simulation cell")
	fs.StringVar(&f.out, "o", "", "also write the pass as markdown to this file (EXPERIMENTS.md source)")
	fs.StringVar(&f.cache, "cache", "", "persistent cell cache: append completed simulations to this crash-safe log and answer repeats from it")
	modeName := fs.String("mode", "sampled", "steady-state pricing engine (sampled or analytic)")
	f.prof.register(fs)
	if err := parseFlags(fs, args, stderr); err != nil {
		return f, err
	}
	// Report post-parse usage errors ourselves, with the same exit-2
	// semantics as the flag package's own parse errors.
	if f.jobs < 0 {
		fmt.Fprintf(stderr, "-j must be >= 0, got %d\n", f.jobs)
		return f, errFlagParse
	}
	var err error
	if f.mode, err = parseMode(*modeName, stderr); err != nil {
		return f, err
	}
	return f, nil
}

func runExperiments(args []string, stdout, stderr io.Writer, ids ...string) (retErr error) {
	f, err := parseExperimentFlags(args, stderr)
	if err != nil {
		return err
	}
	stopProf, err := f.prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	if f.out != "" {
		// Fail on an unwritable output path before the pass, not after
		// minutes of simulation. Open without truncating so a failing
		// pass never clobbers an existing document; if the probe had to
		// create the file and the pass then fails, remove the empty
		// leftover.
		_, statErr := os.Stat(f.out)
		probe, err := os.OpenFile(f.out, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		probe.Close()
		if os.IsNotExist(statErr) {
			defer func() {
				if retErr != nil {
					os.Remove(f.out)
				}
			}()
		}
	}
	cfg := lpnuma.ExperimentConfig{Seed: f.seed, WorkScale: f.scale, Mode: f.mode}
	sched := lpnuma.NewScheduler(f.jobs)
	if f.verbose {
		sched.Progress = func(done, total int, key runcache.Key) {
			fmt.Fprintf(stderr, "  [%d/%d] %s\n", done, total, key)
		}
	}
	if f.cache != "" {
		store, err := openStore(f.cache, sched, stderr)
		if err != nil {
			return err
		}
		defer func() {
			if err := store.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	// SIGINT/SIGTERM interrupt the pass between epochs: workers drain,
	// completed cells stay cached (and on disk under -cache), and the
	// pass reports what it finished. A second signal kills the process
	// the usual way (stop restores default handling).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	results := make([]lpnuma.ExperimentResult, 0, len(ids))
	passStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		res, err := lpnuma.RunExperimentContext(ctx, sched, id, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return reportInterrupted(sched, stderr, passStart)
			}
			return err
		}
		fmt.Fprintf(stderr, "%s: %d cells (%d simulated, %d deduped) in %v\n",
			res.ID, res.Sweep.Requested, res.Sweep.Runs, res.Sweep.Deduped(),
			time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "=== %s ===\n\n%s\n", res.ID, res.Text)
		results = append(results, res)
	}
	summary := reuseSummary(results, sched)
	fmt.Fprintln(stdout, summary)
	fmt.Fprintf(stderr, "pass complete: %d simulations on %d workers in %v\n",
		sched.Totals().Runs, sched.Workers(), time.Since(passStart).Round(time.Millisecond))
	if f.out != "" {
		if err := os.WriteFile(f.out, []byte(markdown(results, summary, f, ids)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", f.out)
	}
	return nil
}

// openStore opens the persistent cell cache, reports what recovery
// found, and attaches it to the scheduler.
func openStore(path string, sched *lpnuma.Scheduler, stderr io.Writer) (*runcache.Store, error) {
	store, err := runcache.OpenStore(path)
	if err != nil {
		return nil, err
	}
	rs := store.Recovered()
	switch {
	case rs.Reset:
		fmt.Fprintf(stderr, "cache %s: unrecognized file, starting fresh\n", path)
	case rs.TruncatedBytes > 0:
		fmt.Fprintf(stderr, "cache %s: %d cells (dropped %d-byte torn tail)\n", path, rs.Cells, rs.TruncatedBytes)
	default:
		fmt.Fprintf(stderr, "cache %s: %d cells\n", path, rs.Cells)
	}
	sched.SetStore(store)
	return store, nil
}

// reportInterrupted drains the scheduler and prints the partial pass
// accounting after SIGINT/SIGTERM: the stats, then every completed
// cell (each already persisted when -cache is set), so a resumed pass
// is accountable against this one.
func reportInterrupted(sched *lpnuma.Scheduler, stderr io.Writer, passStart time.Time) error {
	sched.Drain()
	keys := sched.CompletedKeys()
	tot := sched.Totals()
	fmt.Fprintf(stderr, "interrupted after %v: %d cells completed (of %d requested: %d runs started, %d memory hits, %d disk hits)\n",
		time.Since(passStart).Round(time.Millisecond), len(keys), tot.Requested, tot.Runs, tot.Hits, tot.DiskHits)
	for _, k := range keys {
		fmt.Fprintf(stderr, "  done %s\n", k)
	}
	return errors.New("interrupted")
}

// reuseSummary renders the cross-experiment cache accounting.
func reuseSummary(results []lpnuma.ExperimentResult, sched *lpnuma.Scheduler) string {
	rows := make([]report.ReuseRow, len(results))
	for i, res := range results {
		rows[i] = report.ReuseRow{
			ID:        res.ID,
			Cells:     res.Sweep.Requested,
			Unique:    res.Sweep.Unique,
			CacheHits: res.Sweep.Hits,
			Runs:      res.Sweep.Runs,
		}
	}
	return report.ReuseSummary(rows, sched.Totals().Runs)
}

// markdown renders a regeneration pass as the EXPERIMENTS.md document.
// ids names the experiments the pass actually ran, so the provenance
// line reproduces this document rather than always claiming `all`.
func markdown(results []lpnuma.ExperimentResult, summary string, f experimentFlags, ids []string) string {
	sub := "all"
	if len(ids) == 1 {
		sub = "experiment " + ids[0]
	}
	var b strings.Builder
	b.WriteString("# EXPERIMENTS\n\n")
	b.WriteString("Reproduced figures and tables of *Large Pages May Be Harmful on\n")
	b.WriteString("NUMA Systems* (Gaud et al., USENIX ATC 2014), regenerated by the\n")
	b.WriteString("simulation in this repository. Regenerate with:\n\n")
	modeFlag := ""
	if f.mode != sim.ModeSampled {
		modeFlag = fmt.Sprintf(" -mode %s", f.mode)
	}
	fmt.Fprintf(&b, "```\ngo run ./cmd/lpnuma %s -seed %d -scale %g%s -o %s\n```\n\n", sub, f.seed, f.scale, modeFlag, f.out)
	b.WriteString("Output is deterministic: the same seed and scale reproduce this\n")
	b.WriteString("file byte for byte, for any `-j` worker count. Adding `-cache\n")
	b.WriteString("FILE` persists every completed cell to a crash-safe log, so a\n")
	b.WriteString("repeat or interrupted-and-resumed pass simulates only cells that\n")
	b.WriteString("never ran before (a repeat of this document runs zero).\n\n")
	for _, res := range results {
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", res.ID, res.Text)
	}
	b.WriteString("## sweep reuse\n\n")
	fmt.Fprintf(&b, "```\n%s```\n", summary)
	return b.String()
}
