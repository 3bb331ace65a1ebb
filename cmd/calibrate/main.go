// Command calibrate runs selected benchmarks under selected policies and
// prints the paper's Table-1-style metrics, used to tune the workload
// parameterization against the published numbers.
//
// Usage:
//
//	calibrate [-machines A,B] [-workloads CG.D,UA.B|all] [-policies Linux4K,THP|all]
//	          [-seed 1] [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machines := fs.String("machines", "A,B", "comma-separated machines")
	wls := fs.String("workloads", "CG.D,UA.B,WC,SSCA.20,SPECjbb", "comma-separated benchmarks (or 'all')")
	pols := fs.String("policies", "Linux4K,THP", "comma-separated policies (or 'all')")
	seed := fs.Uint64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "work scale (<1 for quicker, noisier passes)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q (use -machines/-workloads/-policies flags)\n", fs.Args())
		return 2
	}
	ms := strings.Split(*machines, ",")
	var ws []string
	if *wls == "all" {
		for _, s := range workloads.Suite() {
			ws = append(ws, s.Name)
		}
	} else {
		ws = strings.Split(*wls, ",")
	}
	var ps []string
	if *pols == "all" {
		ps = policy.Names()
	} else {
		ps = strings.Split(*pols, ",")
	}

	cfg := sim.DefaultConfig()
	cfg.WorkScale = *scale
	var reqs []runner.Request
	for _, m := range ms {
		for _, w := range ws {
			for _, p := range ps {
				reqs = append(reqs, runner.Request{Machine: m, Workload: w, Policy: p, Seed: *seed, Cfg: &cfg})
			}
		}
	}
	start := time.Now()
	results, _, err := runcache.New(0).Results(reqs)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	res := make(map[runner.Key]sim.Result, len(results))
	for i, r := range results {
		res[runner.Key{Machine: reqs[i].Machine, Workload: reqs[i].Workload, Policy: reqs[i].Policy}] = r
	}
	fmt.Fprintf(stdout, "%d runs in %v\n\n", len(res), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "%-16s %-2s %-12s %8s %7s %7s %7s %7s %7s %6s %6s %7s %9s %6s\n",
		"workload", "M", "policy", "runtime", "impr%", "LAR", "imbal", "PTW%", "fault%", "PAMUP", "NHP", "PSP", "faultSec", "epochs")
	for _, m := range ms {
		for _, w := range ws {
			var base sim.Result
			if b, ok := res[runner.Key{Machine: m, Workload: w, Policy: "Linux4K"}]; ok {
				base = b
			}
			for _, p := range ps {
				r, ok := res[runner.Key{Machine: m, Workload: w, Policy: p}]
				if !ok {
					continue
				}
				impr := 0.0
				if base.RuntimeSeconds > 0 {
					impr = runner.ImprovementPct(base, r)
				}
				to := ""
				if r.TimedOut {
					to = " TIMEOUT"
				}
				fmt.Fprintf(stdout, "%-16s %-2s %-12s %7.2fs %+7.1f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %5.1f%% %6d %6.1f%% %8.2fs %6d%s\n",
					w, m, p, r.RuntimeSeconds, impr, r.LARPct, r.ImbalancePct,
					r.PTWSharePct, r.MaxFaultSharePct, r.PageMetrics.PAMUPPct,
					r.PageMetrics.NHP, r.PageMetrics.PSPPct, r.MaxCoreFaultSeconds, r.Epochs, to)
			}
		}
	}
	return 0
}
