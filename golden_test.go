package repro_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// update rewrites the golden file: go test . -run TestGolden -update.
var update = flag.Bool("update", false, "rewrite testdata/golden.tsv from the current code")

const (
	goldenPath = "testdata/golden.tsv"
	// goldenScale keeps the whole matrix to tens of seconds.
	goldenScale = 0.02
	goldenSeed  = 1
)

var goldenModes = []sim.Mode{sim.ModeSampled, sim.ModeAnalytic}

// goldenCell is one (machine, workload, policy, mode) cell and the
// line its result renders to.
type goldenCell struct {
	machine, workload, policy string
	mode                      sim.Mode
	res                       sim.Result
}

func (c *goldenCell) key() string {
	return strings.Join([]string{c.machine, c.workload, c.policy, c.mode.String()}, "\t")
}

// line renders the cell: its key, the SHA-256 of its sim.Result JSON,
// and the headline metrics in plain text so a diff shows what moved.
func (c *goldenCell) line(t *testing.T) string {
	js, err := json.Marshal(c.res)
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	return fmt.Sprintf("%s\t%x\t%s", c.key(), sha256.Sum256(js), headline(c.res))
}

func headline(r sim.Result) string {
	return fmt.Sprintf("%.6g\t%.6g\t%.6g\t%.6g", r.RuntimeSeconds, r.LARPct, r.ImbalancePct, r.PTWSharePct)
}

// equivSpec exercises every daemon decision path: a hot shared region
// (hot-page splits, placement), a private region (locality), and a
// churny shared region (fault pressure for the conservative component).
// At full scale it runs for several 1 s daemon intervals, which no
// cell at goldenScale that runs a daemon reaches.
func equivSpec() workloads.Spec {
	return workloads.Spec{
		Name: "equiv",
		Regions: []workloads.RegionSpec{
			{Name: "hot", Bytes: 96 << 20, Weight: 0.5, Loc: cache.ZipfHot,
				HotFrac: 0.02, HotAccessFrac: 0.7, DRAMFloor: 0.4,
				Sharing: workloads.SharedAll, Init: workloads.InitStriped, InitTouchWeight: 32},
			{Name: "priv", Bytes: 128 << 20, Weight: 0.35, Loc: cache.RandomUniform,
				Sharing: workloads.PrivateBlocked, Init: workloads.InitOwner, InitTouchWeight: 32,
				HaloFrac: 0.05, HaloBytes: 4096},
			{Name: "churn", Bytes: 64 << 20, Weight: 0.15, Loc: cache.RandomUniform,
				DRAMFloor: 0.3, Sharing: workloads.SharedAll, Init: workloads.InitStriped,
				InitTouchWeight: 32, ChurnPer1K: 1, ChurnTHPFrac: 0.5},
		},
		WorkPerThread:        6e7,
		ExtraCyclesPerAccess: 4,
		MLPOverlap:           0.6,
	}
}

// goldenCells lists the pinned cells: every machine × registered
// workload × policy × mode at goldenScale, except that WC.churn runs
// only on A under Linux4K and THP (its arena teardown costs seconds per
// cell at any scale).
func goldenCells() (named []goldenCell, equiv []goldenCell) {
	for _, m := range []string{"A", "B"} {
		for _, w := range workloads.Names() {
			for _, p := range policy.Names() {
				if w == "WC.churn" && (m != "A" || (p != "Linux4K" && p != "THP")) {
					continue
				}
				for _, mode := range goldenModes {
					named = append(named, goldenCell{machine: m, workload: w, policy: p, mode: mode})
				}
			}
		}
	}
	for _, p := range policy.Names() {
		for _, mode := range goldenModes {
			equiv = append(equiv, goldenCell{machine: "A", workload: equivSpec().Name, policy: p, mode: mode})
		}
	}
	return named, equiv
}

// runGolden fills every cell's result: the named cells in parallel on a
// runcache scheduler, then the equivSpec cells (tens of milliseconds
// each) at sim.DefaultConfig.
func runGolden(t *testing.T, named, equiv []goldenCell) {
	reqs := make([]runner.Request, len(named))
	for i, c := range named {
		cfg := sim.DefaultConfig()
		cfg.WorkScale = goldenScale
		cfg.Mode = c.mode
		reqs[i] = runner.Request{Machine: c.machine, Workload: c.workload, Policy: c.policy, Seed: goldenSeed, Cfg: &cfg}
	}
	results, _, err := runcache.New(0).Results(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range named {
		named[i].res = results[i]
	}
	for i := range equiv {
		c := &equiv[i]
		pol, err := policy.ByName(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Mode = c.mode
		eng, err := sim.New(topo.MachineA(), equivSpec(), pol, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		c.res = eng.Run()
	}
}

// TestGolden pins the sim.Result of every cell goldenCells lists, byte
// for byte, through a digest per cell in testdata/golden.tsv. A change
// that means to move results reruns it with -update and commits the
// .tsv diff as the record of what moved.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if arch := goldenArch(string(want)); !*update && arch != "" && arch != runtime.GOARCH {
		// Go may fuse multiply-adds on arm64, ppc64 and s390x, so
		// float results are only reproducible on the recorded GOARCH.
		t.Skipf("%s was recorded on GOARCH %s; this is %s", goldenPath, arch, runtime.GOARCH)
	}
	named, equiv := goldenCells()
	runGolden(t, named, equiv)
	lines := make([]string, 0, len(named)+len(equiv))
	for _, cells := range [][]goldenCell{named, equiv} {
		for i := range cells {
			lines = append(lines, cells[i].line(t))
		}
	}
	sort.Strings(lines)
	got := "# sim.Result digests at WorkScale " + fmt.Sprint(goldenScale) + ", seed " + fmt.Sprint(goldenSeed) +
		" (equiv rows at sim.DefaultConfig); regenerate with: go test . -run TestGolden -update\n" +
		"# goarch\t" + runtime.GOARCH + "\n" +
		"# machine\tworkload\tpolicy\tmode\tsha256\truntime_s\tlar_pct\timbalance_pct\tptw_share_pct\n" +
		strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got == string(want) {
		return
	}
	diffs := diffGolden(goldenRows(string(want)), goldenRows(got))
	if len(diffs) == 0 {
		diffs = []string{"every cell matches, but the file's header or layout differs; rerun with -update"}
	}
	t.Fatalf("%s differs in %d cells (rerun with -update only when a change means to move results):\n%s",
		goldenPath, len(diffs), strings.Join(diffs, "\n"))
}

// goldenArch returns the GOARCH recorded in a golden file's header.
func goldenArch(file string) string {
	for _, l := range strings.Split(file, "\n") {
		if arch, ok := strings.CutPrefix(l, "# goarch\t"); ok {
			return arch
		}
	}
	return ""
}

// goldenRows maps each data line's cell key to its digest and headline
// metrics.
func goldenRows(file string) map[string][]string {
	rows := map[string][]string{}
	for _, l := range strings.Split(file, "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Split(l, "\t")
		if len(f) != 9 {
			rows[l] = nil // malformed: reported as an extra line
			continue
		}
		rows[strings.Join(f[:4], "\t")] = f[4:]
	}
	return rows
}

// diffGolden describes every missing, extra or changed cell, in key
// order, with the old and new headline metrics.
func diffGolden(want, got map[string][]string) []string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	metrics := func(f []string) string {
		if f == nil {
			return "malformed"
		}
		return fmt.Sprintf("runtime %ss, LAR %s%%, imbalance %s%%, PTW share %s%%", f[1], f[2], f[3], f[4])
	}
	var out []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		name := strings.ReplaceAll(k, "\t", "/")
		switch {
		case !inWant:
			out = append(out, fmt.Sprintf("  missing: %s has no golden line (new: %s)", name, metrics(g)))
		case !inGot:
			out = append(out, fmt.Sprintf("  extra:   %s is not a cell any more (old: %s)", name, metrics(w)))
		case strings.Join(w, "\t") != strings.Join(g, "\t"):
			if metrics(w) == metrics(g) {
				out = append(out, fmt.Sprintf("  changed: %s: a field outside the headline moved (%s)", name, metrics(g)))
				continue
			}
			out = append(out, fmt.Sprintf("  changed: %s\n    old: %s\n    new: %s", name, metrics(w), metrics(g)))
		}
	}
	return out
}
