// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2, §3.1, §4). Each experiment *declares* the
// (machine, workload, policy) cells it needs; a shared runcache.Scheduler
// deduplicates the union of all declared cells against its
// content-addressed cache, executes each unique cell exactly once on a
// bounded worker pool, and fans results back out, so regenerating the
// whole evaluation builds one global run matrix instead of ten
// independent ones. Rendering is a pure function of the resolved cells,
// so output is identical for any worker count. The per-experiment index
// in DESIGN.md maps each experiment to its paper counterpart.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Config parameterizes a regeneration pass.
type Config struct {
	// Seed drives all simulations.
	Seed uint64
	// WorkScale shortens runs for quick passes (0 = full length).
	WorkScale float64
	// Mode selects the engine's steady-state pricing implementation
	// (sim.ModeSampled or sim.ModeAnalytic) for every experiment except
	// fullscale, which always runs analytic at scale 1.0 — that is its
	// point.
	Mode sim.Mode
}

// simCfg builds the engine configuration.
func (c Config) simCfg() *sim.Config {
	s := sim.DefaultConfig()
	if c.Seed != 0 {
		s.Seed = c.Seed
	}
	s.WorkScale = c.WorkScale
	s.Mode = c.Mode
	return &s
}

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment identifier ("fig1", "table2", ...).
	ID string
	// Text is the rendered figure/table.
	Text string
	// Values indexes the numeric results for tests and EXPERIMENTS.md:
	// keyed by "machine/workload/policy/metric".
	Values map[string]float64
	// Sweep reports how many cells the experiment declared and how many
	// were answered from the shared cache instead of fresh simulations.
	Sweep runcache.Stats
}

// definition is one declarative experiment: the cells it needs and a
// pure rendering of the resolved matrix.
type definition struct {
	id string
	// declare lists every simulation cell the experiment consumes.
	declare func(cfg Config) []runner.Request
	// render draws the experiment from the resolved cells, recording its
	// headline numbers into values. It must not run simulations.
	render func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string
}

// cells builds the cross product of the given dimensions.
func cells(cfg Config, machines, wl, policies []string) []runner.Request {
	sc := cfg.simCfg()
	var reqs []runner.Request
	for _, m := range machines {
		for _, w := range wl {
			for _, p := range policies {
				reqs = append(reqs, runner.Request{Machine: m, Workload: w, Policy: p, Seed: cfg.Seed, Cfg: sc})
			}
		}
	}
	return reqs
}

// index arranges batch results by their sweep key.
func index(reqs []runner.Request, results []sim.Result) map[runner.Key]sim.Result {
	out := make(map[runner.Key]sim.Result, len(results))
	for i, r := range results {
		out[runner.Key{Machine: reqs[i].Machine, Workload: reqs[i].Workload, Policy: reqs[i].Policy}] = r
	}
	return out
}

func names(specs []workloads.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// improvementFigure renders one machine's panel: percent improvement of
// each policy over Linux4K for the given benchmarks.
func improvementFigure(title string, machine string, wl []string, policies []string, res map[runner.Key]sim.Result, values map[string]float64) report.Figure {
	fig := report.Figure{
		Title:  title,
		YLabel: "perf. improvement relative to default Linux (%)",
		Labels: wl,
	}
	for _, p := range policies {
		s := report.Series{Name: p}
		for _, w := range wl {
			base := res[runner.Key{Machine: machine, Workload: w, Policy: "Linux4K"}]
			r := res[runner.Key{Machine: machine, Workload: w, Policy: p}]
			impr := runner.ImprovementPct(base, r)
			s.Values = append(s.Values, impr)
			values[fmt.Sprintf("%s/%s/%s/improvement", machine, w, p)] = impr
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// recordMetrics indexes every run's headline metrics.
func recordMetrics(res map[runner.Key]sim.Result, values map[string]float64) {
	for k, r := range res {
		pre := fmt.Sprintf("%s/%s/%s/", k.Machine, k.Workload, k.Policy)
		values[pre+"runtime"] = r.RuntimeSeconds
		values[pre+"lar"] = r.LARPct
		values[pre+"imbalance"] = r.ImbalancePct
		values[pre+"ptw"] = r.PTWSharePct
		values[pre+"faultshare"] = r.MaxFaultSharePct
		values[pre+"faultsec"] = r.MaxCoreFaultSeconds
		values[pre+"pamup"] = r.PageMetrics.PAMUPPct
		values[pre+"nhp"] = float64(r.PageMetrics.NHP)
		values[pre+"psp"] = r.PageMetrics.PSPPct
	}
}

// figureDefinition declares one of the two-panel improvement figures:
// both machines, the given benchmarks, the given policies plus the
// Linux4K baseline.
func figureDefinition(id, caption string, wl func() []string, policies []string) definition {
	machines := []string{"A", "B"}
	return definition{
		id: id,
		declare: func(cfg Config) []runner.Request {
			return cells(cfg, machines, wl(), append([]string{"Linux4K"}, policies...))
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			var b strings.Builder
			for i, m := range machines {
				panel := improvementFigure(
					fmt.Sprintf("%s (%s) machine %s", caption, string('a'+rune(i)), m),
					m, wl(), policies, res, values)
				b.WriteString(panel.Render())
				b.WriteString("\n")
			}
			return b.String()
		},
	}
}

// table1Rows are the paper's Table 1 benchmark/machine pairs.
var table1Rows = []struct{ Workload, Machine string }{
	{"CG.D", "B"}, {"UA.C", "B"}, {"WC", "B"}, {"SSCA.20", "A"}, {"SPECjbb", "A"},
}

// table1Definition declares the detailed Linux-vs-THP analysis (§2.2).
func table1Definition() definition {
	return definition{
		id: "table1",
		declare: func(cfg Config) []runner.Request {
			var reqs []runner.Request
			for _, row := range table1Rows {
				reqs = append(reqs, cells(cfg, []string{row.Machine}, []string{row.Workload}, []string{"Linux4K", "THP"})...)
			}
			return reqs
		},
		render: func(cfg Config, byKey map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(byKey, values)
			t := report.Table{
				Title: "Table 1: detailed analysis (Linux vs THP)",
				Header: []string{"benchmark", "perf. incr THP/4K",
					"fault time Linux", "fault time THP",
					"%L2-PTW Linux", "%L2-PTW THP",
					"LAR Linux", "LAR THP",
					"imbalance Linux", "imbalance THP"},
			}
			for _, row := range table1Rows {
				lin := byKey[runner.Key{Machine: row.Machine, Workload: row.Workload, Policy: "Linux4K"}]
				thp := byKey[runner.Key{Machine: row.Machine, Workload: row.Workload, Policy: "THP"}]
				impr := runner.ImprovementPct(lin, thp)
				values[fmt.Sprintf("%s/%s/THP/improvement", row.Machine, row.Workload)] = impr
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%s (%s)", row.Workload, row.Machine),
					report.Signed(impr),
					fmt.Sprintf("%s (%.1f%%)", report.Ms(lin.MaxCoreFaultSeconds), lin.MaxFaultSharePct),
					fmt.Sprintf("%s (%.1f%%)", report.Ms(thp.MaxCoreFaultSeconds), thp.MaxFaultSharePct),
					report.Num(lin.PTWSharePct), report.Num(thp.PTWSharePct),
					report.Num(lin.LARPct), report.Num(thp.LARPct),
					report.Num(lin.ImbalancePct), report.Num(thp.ImbalancePct),
				})
			}
			return t.Render()
		},
	}
}

// table2Definition declares the hot-page / false-sharing metrics on
// machine A (§3.1): PAMUP, NHP, PSP, imbalance and LAR under Linux, THP
// and Carrefour-2M for SPECjbb, CG.D and UA.B.
func table2Definition() definition {
	wl := []string{"SPECjbb", "CG.D", "UA.B"}
	return definition{
		id: "table2",
		declare: func(cfg Config) []runner.Request {
			return cells(cfg, []string{"A"}, wl, []string{"Linux4K", "THP", "Carrefour2M"})
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			t := report.Table{
				Title:  "Table 2: PAMUP / NHP / PSP / imbalance / LAR on machine A",
				Header: []string{"benchmark", "metric", "Linux", "THP", "Carrefour-2M"},
			}
			for _, w := range wl {
				get := func(p string) sim.Result { return res[runner.Key{Machine: "A", Workload: w, Policy: p}] }
				lin, thp, car := get("Linux4K"), get("THP"), get("Carrefour2M")
				t.Rows = append(t.Rows,
					[]string{w, "PAMUP", report.Pct(lin.PageMetrics.PAMUPPct), report.Pct(thp.PageMetrics.PAMUPPct), report.Pct(car.PageMetrics.PAMUPPct)},
					[]string{"", "NHP", fmt.Sprintf("%d", lin.PageMetrics.NHP), fmt.Sprintf("%d", thp.PageMetrics.NHP), fmt.Sprintf("%d", car.PageMetrics.NHP)},
					[]string{"", "PSP", report.Pct(lin.PageMetrics.PSPPct), report.Pct(thp.PageMetrics.PSPPct), report.Pct(car.PageMetrics.PSPPct)},
					[]string{"", "Imbalance", report.Pct(lin.ImbalancePct), report.Pct(thp.ImbalancePct), report.Pct(car.ImbalancePct)},
					[]string{"", "LAR", report.Pct(lin.LARPct), report.Pct(thp.LARPct), report.Pct(car.LARPct)},
				)
			}
			return t.Render()
		},
	}
}

// table3Rows are the paper's Table 3 benchmark/machine pairs.
var table3Rows = []struct{ Workload, Machine string }{
	{"CG.D", "B"}, {"UA.B", "A"}, {"UA.C", "B"},
}

// table3Definition declares the NUMA metrics across all four
// configurations (§4.1).
func table3Definition() definition {
	policies := []string{"Linux4K", "THP", "Carrefour2M", "CarrefourLP"}
	return definition{
		id: "table3",
		declare: func(cfg Config) []runner.Request {
			var reqs []runner.Request
			for _, row := range table3Rows {
				reqs = append(reqs, cells(cfg, []string{row.Machine}, []string{row.Workload}, policies)...)
			}
			return reqs
		},
		render: func(cfg Config, byKey map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(byKey, values)
			t := report.Table{
				Title: "Table 3: LAR and imbalance under Linux, THP, Carrefour-2M, Carrefour-LP",
				Header: []string{"benchmark",
					"LAR Linux", "LAR THP", "LAR Carr2M", "LAR CarrLP",
					"imb Linux", "imb THP", "imb Carr2M", "imb CarrLP"},
			}
			for _, row := range table3Rows {
				get := func(p string) sim.Result {
					return byKey[runner.Key{Machine: row.Machine, Workload: row.Workload, Policy: p}]
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%s (%s)", row.Workload, row.Machine),
					report.Num(get("Linux4K").LARPct), report.Num(get("THP").LARPct),
					report.Num(get("Carrefour2M").LARPct), report.Num(get("CarrefourLP").LARPct),
					report.Num(get("Linux4K").ImbalancePct), report.Num(get("THP").ImbalancePct),
					report.Num(get("Carrefour2M").ImbalancePct), report.Num(get("CarrefourLP").ImbalancePct),
				})
			}
			return t.Render()
		},
	}
}

// overheadDefinition declares the §4.2 overhead assessment: Carrefour-LP
// versus the reactive-only configuration, Carrefour-2M, and Linux with
// 4 KB pages, over the full suite on both machines.
func overheadDefinition() definition {
	machines := []string{"A", "B"}
	return definition{
		id: "overhead",
		declare: func(cfg Config) []runner.Request {
			return cells(cfg, machines, names(workloads.Suite()),
				[]string{"Linux4K", "Carrefour2M", "Reactive", "CarrefourLP"})
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			wl := names(workloads.Suite())
			recordMetrics(res, values)
			t := report.Table{
				Title: "Overhead of Carrefour-LP (§4.2): negative = Carrefour-LP slower",
				Header: []string{"benchmark", "machine",
					"vs Reactive", "vs Carrefour-2M", "vs Linux-4K"},
			}
			type agg struct {
				sum, min float64
				n        int
			}
			aggs := map[string]*agg{"Reactive": {min: 1e9}, "Carrefour2M": {min: 1e9}, "Linux4K": {min: 1e9}}
			for _, m := range machines {
				for _, w := range wl {
					lp := res[runner.Key{Machine: m, Workload: w, Policy: "CarrefourLP"}]
					row := []string{w, m}
					for _, p := range []string{"Reactive", "Carrefour2M", "Linux4K"} {
						base := res[runner.Key{Machine: m, Workload: w, Policy: p}]
						d := runner.ImprovementPct(base, lp)
						values[fmt.Sprintf("%s/%s/overhead-vs-%s", m, w, p)] = d
						row = append(row, report.Signed(d))
						a := aggs[p]
						a.sum += d
						a.n++
						if d < a.min {
							a.min = d
						}
					}
					t.Rows = append(t.Rows, row)
				}
			}
			var b strings.Builder
			b.WriteString(t.Render())
			keys := make([]string, 0, len(aggs))
			for p := range aggs {
				keys = append(keys, p)
			}
			sort.Strings(keys)
			for _, p := range keys {
				a := aggs[p]
				fmt.Fprintf(&b, "  summary vs %s: mean %+.1f%%, worst %+.1f%%\n", p, a.sum/float64(a.n), a.min)
				values["summary/overhead-mean-vs-"+p] = a.sum / float64(a.n)
				values["summary/overhead-worst-vs-"+p] = a.min
			}
			return b.String()
		},
	}
}

// veryLargeDefinition declares §4.4: 1 GB pages on SSCA and
// streamcluster. The paper reports SSCA degrading by 34% and
// streamcluster by ~4× versus their 2 MB configurations, from hot small
// pages coalescing onto one node.
func veryLargeDefinition() definition {
	wl := []string{"SSCA.20", "streamcluster"}
	return definition{
		id: "verylarge",
		declare: func(cfg Config) []runner.Request {
			return cells(cfg, []string{"A"}, wl, []string{"THP", "HugeTLB1G"})
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			t := report.Table{
				Title:  "Very large (1 GB) pages on machine A (§4.4)",
				Header: []string{"benchmark", "2M runtime", "1G runtime", "slowdown", "1G imbalance"},
			}
			for _, w := range wl {
				thp := res[runner.Key{Machine: "A", Workload: w, Policy: "THP"}]
				gig := res[runner.Key{Machine: "A", Workload: w, Policy: "HugeTLB1G"}]
				slow := gig.RuntimeSeconds / thp.RuntimeSeconds
				values[fmt.Sprintf("A/%s/1g-slowdown", w)] = slow
				t.Rows = append(t.Rows, []string{
					w,
					report.Seconds(thp.RuntimeSeconds),
					report.Seconds(gig.RuntimeSeconds),
					fmt.Sprintf("%.2fx", slow),
					report.Pct(gig.ImbalancePct),
				})
			}
			return t.Render()
		},
	}
}

// beyondDefinition declares the beyond-the-paper section: the
// page-table placement policies (Mitosis-style replication, dominant-
// accessor migration) and the Trident 4K/2M/1G ladder, against the
// PTBaseline control (4 KB pages with first-touch page tables, under
// the same NUMA-aware page-table pricing). PTBaseline — not Linux4K or
// THP — is the baseline because the paper policies are priced
// location-blind; only cells sharing the page-table cost model are
// comparable.
func beyondDefinition() definition {
	machines := []string{"A", "B"}
	wl := []string{"CG.D", "UA.B", "SSCA.20", "SPECjbb"}
	policies := policy.BeyondNames() // PTBaseline first
	return definition{
		id: "beyond",
		declare: func(cfg Config) []runner.Request {
			return cells(cfg, machines, wl, policies)
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			var b strings.Builder
			for _, m := range machines {
				t := report.Table{
					Title: fmt.Sprintf("Beyond the paper: page-table placement and the 1G ladder (machine %s)", m),
					Header: []string{"benchmark", "PTBaseline",
						"MitosisPTR", "NumaPTEMig", "TridentLP",
						"PTW% base", "PTW% trident"},
				}
				for _, w := range wl {
					base := res[runner.Key{Machine: m, Workload: w, Policy: "PTBaseline"}]
					row := []string{w, report.Seconds(base.RuntimeSeconds)}
					for _, p := range policies[1:] {
						r := res[runner.Key{Machine: m, Workload: w, Policy: p}]
						impr := runner.ImprovementPct(base, r)
						values[fmt.Sprintf("%s/%s/%s/beyond-improvement", m, w, p)] = impr
						row = append(row, report.Signed(impr)+"%")
					}
					tri := res[runner.Key{Machine: m, Workload: w, Policy: "TridentLP"}]
					row = append(row, report.Num(base.PTWSharePct), report.Num(tri.PTWSharePct))
					t.Rows = append(t.Rows, row)
				}
				b.WriteString(t.Render())
				b.WriteString("\n")
			}
			b.WriteString("  improvements are runtime gains over PTBaseline (4 KB pages, first-touch\n")
			b.WriteString("  page tables, NUMA-aware walk pricing); PTW% is the share of L2 misses\n")
			b.WriteString("  from page-table walks under the baseline vs the Trident ladder. Mitosis\n")
			b.WriteString("  wins wherever walks are frequent; migration recovers only a fraction of\n")
			b.WriteString("  replication's gain; the 1G ladder relieves TLB pressure but inherits the\n")
			b.WriteString("  paper's hot-page harm where its demotion rung cannot reach (CG.D on B).\n")
			return b.String()
		},
	}
}

// fullscaleDefinition declares the full-scale machine-B pass: the
// headline comparison (THP and Carrefour-LP against default Linux) over
// the whole suite at WorkScale 1.0 — the paper's real machine sizes,
// which the sampled engine made impractical to sweep. It always runs
// the analytic engine at scale 1.0, regardless of the pass's -scale and
// -mode: the section exists to show the full-size numbers, and the
// analytic engine (DESIGN.md §4.7) is what makes them interactive.
// Because its cells carry their own (Mode, WorkScale) configuration,
// runcache addresses them separately from every other experiment's.
func fullscaleDefinition() definition {
	policies := []string{"THP", "CarrefourLP"}
	wl := func() []string { return names(workloads.Suite()) }
	fullCfg := func(cfg Config) *sim.Config {
		s := sim.DefaultConfig()
		if cfg.Seed != 0 {
			s.Seed = cfg.Seed
		}
		s.WorkScale = 1.0
		s.Mode = sim.ModeAnalytic
		return &s
	}
	return definition{
		id: "fullscale",
		declare: func(cfg Config) []runner.Request {
			sc := fullCfg(cfg)
			var reqs []runner.Request
			for _, w := range wl() {
				for _, p := range append([]string{"Linux4K"}, policies...) {
					reqs = append(reqs, runner.Request{Machine: "B", Workload: w, Policy: p, Seed: cfg.Seed, Cfg: sc})
				}
			}
			return reqs
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			var b strings.Builder
			panel := improvementFigure(
				"Full scale: THP and Carrefour-LP over Linux on machine B (scale 1.0, analytic engine)",
				"B", wl(), policies, res, values)
			b.WriteString(panel.Render())
			b.WriteString("\n")
			t := report.Table{
				Title:  "Full-scale NUMA metrics (machine B, scale 1.0)",
				Header: []string{"benchmark", "LAR 4K", "LAR THP", "imb 4K", "imb THP", "PTW% 4K", "PTW% THP"},
			}
			for _, w := range []string{"CG.D", "UA.C", "SSCA.20", "SPECjbb", "WC"} {
				lin := res[runner.Key{Machine: "B", Workload: w, Policy: "Linux4K"}]
				thp := res[runner.Key{Machine: "B", Workload: w, Policy: "THP"}]
				t.Rows = append(t.Rows, []string{w,
					report.Num(lin.LARPct), report.Num(thp.LARPct),
					report.Num(lin.ImbalancePct), report.Num(thp.ImbalancePct),
					report.Num(lin.PTWSharePct), report.Num(thp.PTWSharePct),
				})
			}
			b.WriteString(t.Render())
			b.WriteString("  full-length runs (WorkScale 1.0) on the 64-thread machine, priced by the\n")
			b.WriteString("  analytic expectation engine; the quick-pass sections above use the scale\n")
			b.WriteString("  given on the command line. Runtime-derived improvements at full length\n")
			b.WriteString("  are free of the short-run boundary effects the reduced scales carry.\n")
			return b.String()
		},
	}
}

// dynamicPairs maps each event-timeline workload to the static-suite
// benchmark it mutates, so the section can show the same policy on the
// same application shape with and without mid-run churn.
var dynamicPairs = [][2]string{{"WC", "WC.churn"}, {"CG.D", "CG.shift"}}

// dynamicDefinition declares the dynamic-workload section (ROADMAP item
// 1): the static suite freezes every region set at build time, which is
// exactly the regime where one-shot huge-page decisions cannot be
// wrong. The event-timeline workloads reintroduce the dynamics §3.2 of
// the paper says dominate real THP behavior — WC.churn tears down and
// reallocates a machine-filling arena (buddy fragmentation starves 2 MB
// faults into 4 KB fallbacks), CG.shift collapses and relaxes a hot set
// after placement decisions have been made — and the section renders
// each policy's improvement against the static counterpart it mutates.
func dynamicDefinition() definition {
	policies := []string{"THP", "CarrefourLP", "TridentLP"}
	wl := func() []string {
		var out []string
		for _, pair := range dynamicPairs {
			out = append(out, pair[0], pair[1])
		}
		return out
	}
	return definition{
		id: "dynamic",
		declare: func(cfg Config) []runner.Request {
			// Machine A only: WC.churn's arena is sized to exhaust its
			// 64 GiB so that teardown shatters every node's free lists.
			return cells(cfg, []string{"A"}, wl(), append([]string{"Linux4K"}, policies...))
		},
		render: func(cfg Config, res map[runner.Key]sim.Result, values map[string]float64) string {
			recordMetrics(res, values)
			var b strings.Builder
			panel := improvementFigure(
				"Dynamic workloads: improvement over Linux under mid-run churn (machine A)",
				"A", wl(), policies, res, values)
			b.WriteString(panel.Render())
			b.WriteString("\n")
			t := report.Table{
				Title:  "Static suite vs. event timeline: improvement over Linux (points)",
				Header: []string{"policy", "static", "impr", "dynamic", "impr", "delta"},
			}
			for _, pair := range dynamicPairs {
				for _, p := range policies {
					stat := values[fmt.Sprintf("A/%s/%s/improvement", pair[0], p)]
					dyn := values[fmt.Sprintf("A/%s/%s/improvement", pair[1], p)]
					delta := dyn - stat
					values[fmt.Sprintf("A/%s/%s/dynamic-delta", pair[1], p)] = delta
					t.Rows = append(t.Rows, []string{p, pair[0], report.Num(stat),
						pair[1], report.Num(dyn), report.Num(delta)})
				}
			}
			b.WriteString(t.Render())
			b.WriteString("  each dynamic workload is its static counterpart plus an event timeline:\n")
			b.WriteString("  WC.churn frees a machine-filling intermediate arena mid-run (scattered\n")
			b.WriteString("  4 KB holes leave ample free bytes but no 2 MB contiguity) and allocates a\n")
			b.WriteString("  fresh output region into the rubble, so THP-family policies fault it at\n")
			b.WriteString("  4 KB; CG.shift collapses the gather vector's hot set onto 1% of the\n")
			b.WriteString("  region after placement has settled, then relaxes it again. Negative\n")
			b.WriteString("  deltas are gains the static suite reports that do not survive churn.\n")
			return b.String()
		},
	}
}

// definitions lists every experiment in regeneration order.
func definitions() []definition {
	return []definition{
		figureDefinition("fig1", "Figure 1: THP performance improvement over Linux",
			func() []string { return names(workloads.Suite()) }, []string{"THP"}),
		figureDefinition("fig2", "Figure 2: Carrefour-2M and THP over Linux (NUMA-affected apps)",
			func() []string { return names(workloads.ReducedSet()) }, []string{"THP", "Carrefour2M"}),
		figureDefinition("fig3", "Figure 3: Carrefour-LP and THP over Linux (NUMA-affected apps)",
			func() []string { return names(workloads.ReducedSet()) }, []string{"THP", "CarrefourLP"}),
		figureDefinition("fig4", "Figure 4: Carrefour-2M, Conservative, Reactive and Carrefour-LP over Linux",
			func() []string { return names(workloads.ReducedSet()) },
			[]string{"Carrefour2M", "Conservative", "Reactive", "CarrefourLP"}),
		figureDefinition("fig5", "Figure 5: THP and Carrefour-LP over Linux (apps whose NUMA metrics are unaffected by THP)",
			func() []string { return names(workloads.UnaffectedSet()) }, []string{"THP", "CarrefourLP"}),
		table1Definition(),
		table2Definition(),
		table3Definition(),
		overheadDefinition(),
		veryLargeDefinition(),
		beyondDefinition(),
		dynamicDefinition(),
		fullscaleDefinition(),
	}
}

// byIDMap indexes the definitions.
func byIDMap() map[string]definition {
	defs := definitions()
	m := make(map[string]definition, len(defs))
	for _, d := range defs {
		m[d.id] = d
	}
	return m
}

// runDefinition resolves a definition's cells through the scheduler and
// renders it.
func runDefinition(ctx context.Context, def definition, cfg Config, sched *runcache.Scheduler) (Result, error) {
	reqs := def.declare(cfg)
	results, stats, err := sched.ResultsContext(ctx, reqs)
	if err != nil {
		return Result{}, fmt.Errorf("experiment %s: %w", def.id, err)
	}
	values := map[string]float64{}
	text := def.render(cfg, index(reqs, results), values)
	return Result{ID: def.id, Text: text, Values: values, Sweep: stats}, nil
}

// Declare lists the cells an experiment would run, without running
// them, so callers can inspect or pre-plan an experiment's matrix (the
// tests use it to check declarations are complete).
func Declare(id string, cfg Config) ([]runner.Request, error) {
	def, ok := byIDMap()[id]
	if !ok {
		return nil, unknownErr(id)
	}
	return def.declare(cfg), nil
}

// ByIDWith regenerates one experiment through a shared scheduler, so
// cells already computed for earlier experiments are reused instead of
// re-simulated.
func ByIDWith(sched *runcache.Scheduler, id string, cfg Config) (Result, error) {
	return ByIDContext(context.Background(), sched, id, cfg)
}

// ByIDContext is ByIDWith with cancellation: canceling ctx aborts the
// experiment's in-flight simulations (cells no other caller shares) and
// returns the context's error. Cells that completed before the
// cancellation stay in the scheduler's cache.
func ByIDContext(ctx context.Context, sched *runcache.Scheduler, id string, cfg Config) (Result, error) {
	def, ok := byIDMap()[id]
	if !ok {
		return Result{}, unknownErr(id)
	}
	return runDefinition(ctx, def, cfg, sched)
}

// ByID runs one experiment by identifier on a private scheduler sized to
// the host.
func ByID(id string, cfg Config) (Result, error) {
	return ByIDWith(runcache.New(0), id, cfg)
}

// All regenerates every experiment in order through one shared
// scheduler: the union of all declared cells is deduplicated, each
// unique cell is simulated once, and every experiment renders from the
// shared matrix.
func All(sched *runcache.Scheduler, cfg Config) ([]Result, error) {
	if sched == nil {
		sched = runcache.New(0)
	}
	defs := definitions()
	out := make([]Result, 0, len(defs))
	for _, def := range defs {
		res, err := runDefinition(context.Background(), def, cfg, sched)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ErrUnknownExperiment is the typed resolution failure for experiment
// identifiers, matched with errors.Is (the serve layer answers it with
// HTTP 400).
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

func unknownErr(id string) error {
	return fmt.Errorf("%w %q (want %s)", ErrUnknownExperiment, id, strings.Join(IDs(), ", "))
}

// IDs lists the available experiments in regeneration order.
func IDs() []string {
	defs := definitions()
	ids := make([]string, len(defs))
	for i, d := range defs {
		ids[i] = d.id
	}
	return ids
}
