package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/lpnuma"
)

func TestParseExperimentFlags(t *testing.T) {
	f, err := parseExperimentFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f.seed != 1 || f.scale != 1.0 || f.jobs != 0 || f.verbose || f.out != "" {
		t.Fatalf("defaults wrong: %+v", f)
	}

	f, err = parseExperimentFlags([]string{"-j", "8", "-scale", "0.25", "-seed", "7", "-v", "-o", "out.md"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f.jobs != 8 {
		t.Fatalf("-j not parsed: %+v", f)
	}
	if f.scale != 0.25 || f.seed != 7 || !f.verbose || f.out != "out.md" {
		t.Fatalf("flags wrong: %+v", f)
	}

	if _, err := parseExperimentFlags([]string{"-j", "-3"}, io.Discard); err == nil {
		t.Fatal("negative -j accepted")
	}
	if _, err := parseExperimentFlags([]string{"-j", "many"}, io.Discard); err == nil {
		t.Fatal("non-numeric -j accepted")
	}
	if _, err := parseExperimentFlags([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}

func TestHelpAndParseErrors(t *testing.T) {
	// -h is a successful exit that documents the flags on stderr.
	var out, errb bytes.Buffer
	if code := run([]string{"all", "-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	for _, want := range []string{"-j", "-scale", "-seed", "-o"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, errb.String())
		}
	}
	if code := run([]string{"run", "-h"}, &out, &errb); code != 0 {
		t.Fatalf("run -h exited %d, want 0", code)
	}

	// An unknown flag is reported once (by the flag package), exit 2.
	errb.Reset()
	if code := run([]string{"run", "-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if n := strings.Count(errb.String(), "flag provided but not defined"); n != 1 {
		t.Fatalf("parse error reported %d times, want 1:\n%s", n, errb.String())
	}
}

func TestRunDispatch(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("list exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"benchmarks:", "policies:", "experiments:", "fig1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}

	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("empty args exited %d, want 2", code)
	}
	// Unknown subcommands exit 2 with the usage line. bench is one:
	// lpbench is the benchmark harness.
	for _, sub := range []string{"bogus", "bench"} {
		errb.Reset()
		if code := run([]string{sub}, &out, &errb); code != 2 {
			t.Fatalf("subcommand %q exited %d, want 2", sub, code)
		}
		if !strings.HasPrefix(errb.String(), "usage: lpnuma {list|run|experiment <id>|all|serve}") {
			t.Fatalf("subcommand %q: stderr is not the usage line:\n%s", sub, errb.String())
		}
	}
	if code := run([]string{"experiment"}, &out, &errb); code != 2 {
		t.Fatalf("experiment without id exited %d, want 2", code)
	}
	if code := run([]string{"experiment", "-scale", "0.1"}, &out, &errb); code != 2 {
		t.Fatalf("experiment with flag instead of id exited %d, want 2", code)
	}
}

func TestExperimentEndToEnd(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	var out, errb bytes.Buffer
	code := run([]string{"experiment", "verylarge", "-scale", "0.03", "-j", "2", "-o", outFile}, &out, &errb)
	if code != 0 {
		t.Fatalf("experiment exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "=== verylarge ===") {
		t.Fatalf("stdout missing experiment header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Sweep reuse") {
		t.Fatalf("stdout missing reuse summary:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "verylarge: 4 cells") {
		t.Fatalf("stderr missing progress line:\n%s", errb.String())
	}

	// -j must not change stdout.
	var out1 bytes.Buffer
	if code := run([]string{"experiment", "verylarge", "-scale", "0.03", "-j", "1"}, &out1, &errb); code != 0 {
		t.Fatalf("experiment -j 1 exited %d: %s", code, errb.String())
	}
	if out1.String() != out.String() {
		t.Fatal("-j 1 and -j 2 produced different stdout")
	}
}

func TestOutputFileProbe(t *testing.T) {
	var out, errb bytes.Buffer
	// Unwritable path fails before any simulation.
	if code := run([]string{"experiment", "verylarge", "-o", "/nonexistent-dir/x.md"}, &out, &errb); code != 1 {
		t.Fatalf("unwritable -o exited %d, want 1", code)
	}
	// A failing pass must not leave behind an empty file it created.
	outFile := filepath.Join(t.TempDir(), "new.md")
	if code := run([]string{"experiment", "fig9", "-o", outFile}, &out, &errb); code != 1 {
		t.Fatalf("unknown experiment exited %d, want 1", code)
	}
	if _, err := os.Stat(outFile); !os.IsNotExist(err) {
		t.Fatalf("failed pass left %s behind (stat err: %v)", outFile, err)
	}
}

func TestMarkdownDocument(t *testing.T) {
	res := lpnuma.ExperimentResult{ID: "fig1", Text: "body\n"}
	flags := experimentFlags{seed: 1, scale: 0.3, out: "OUT.md"}
	// A single-experiment pass stamps its own reproduce command.
	doc := markdown([]lpnuma.ExperimentResult{res}, "summary\n", flags, []string{"fig1"})
	for _, want := range []string{"# EXPERIMENTS", "## fig1", "body", "## sweep reuse",
		"summary", "experiment fig1 -seed 1 -scale 0.3 -o OUT.md", "deterministic"} {
		if !strings.Contains(doc, want) {
			t.Fatalf("markdown missing %q:\n%s", want, doc)
		}
	}
	// A full pass stamps the all subcommand.
	doc = markdown([]lpnuma.ExperimentResult{res}, "summary\n", flags, lpnuma.Experiments())
	if !strings.Contains(doc, "lpnuma all -seed 1 -scale 0.3 -o OUT.md") {
		t.Fatalf("full pass should stamp `all`:\n%s", doc)
	}
}

func TestModeFlag(t *testing.T) {
	var out, errb strings.Builder
	// A bogus mode is a usage error (exit 2, message to stderr).
	if code := run([]string{"run", "-mode", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bogus mode exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown mode") {
		t.Fatalf("stderr missing mode error: %s", errb.String())
	}
	// The analytic engine runs end to end from the CLI.
	out.Reset()
	errb.Reset()
	if code := run([]string{"run", "-m", "A", "-w", "UA.B", "-p", "THP", "-mode", "analytic", "-scale", "0.02"}, &out, &errb); code != 0 {
		t.Fatalf("analytic run exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "runtime") {
		t.Fatalf("missing metrics output:\n%s", out.String())
	}
	// The analytic markdown provenance stamps -mode so the document is
	// reproducible.
	doc := markdown([]lpnuma.ExperimentResult{{ID: "fig1", Text: "body\n"}}, "s\n",
		experimentFlags{seed: 1, scale: 1, out: "O.md", mode: lpnuma.ModeAnalytic}, []string{"fig1"})
	if !strings.Contains(doc, "-mode analytic") {
		t.Fatalf("provenance missing -mode:\n%s", doc)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb strings.Builder
	code := run([]string{"run", "-m", "A", "-w", "UA.B", "-p", "Linux4K", "-scale", "0.02",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if code != 0 {
		t.Fatalf("profiled run exit = %d: %s", code, errb.String())
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

func TestRunTableSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"run", "-m", "A", "-w", "Kmeans", "-p", "Linux4K,THP", "-scale", "0.02"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "2 runs in") {
		t.Fatalf("missing run count:\n%s", s)
	}
	for _, want := range []string{"workload", "impr%", "Kmeans", "Linux4K", "THP"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	// Two result rows (one per policy) beyond the header.
	if n := strings.Count(s, "Kmeans"); n != 2 {
		t.Fatalf("result rows = %d, want 2:\n%s", n, s)
	}
}

func TestRunTableErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-m", "A", "-w", "Kmeans,nope", "-p", "THP", "-scale", "0.02"}, &out, &errb); code != 1 {
		t.Fatalf("unknown workload in a list exited %d, want 1", code)
	}
	if code := run([]string{"run", "-m", "A,Z", "-w", "Kmeans", "-p", "THP", "-scale", "0.02"}, &out, &errb); code != 1 {
		t.Fatalf("unknown machine in a list exited %d, want 1", code)
	}
}

func TestRunCellSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"run", "-m", "A", "-w", "Kmeans", "-p", "THP", "-scale", "0.02"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"Kmeans on machine A under THP", "runtime", "node 0:", "node 3:", "accShare-by-node", "page tables on node"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("run output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCellErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-m", "Z"}, &out, &errb); code != 1 {
		t.Fatalf("unknown machine exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown machine") {
		t.Fatalf("missing error message: %s", errb.String())
	}
	if code := run([]string{"run", "-w", "nope", "-scale", "0.02"}, &out, &errb); code != 1 {
		t.Fatalf("unknown workload exited %d, want 1", code)
	}
	if code := run([]string{"run", "-p", "nope", "-scale", "0.02"}, &out, &errb); code != 1 {
		t.Fatalf("unknown policy exited %d, want 1", code)
	}
	// -h and an unknown flag are covered by TestHelpAndParseErrors. The
	// positional style must error, not run the default cell.
	errb.Reset()
	if code := run([]string{"run", "-scale", "0.02", "B", "UA.B", "Linux4K"}, &out, &errb); code != 2 {
		t.Fatalf("positional arguments exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unexpected arguments: B UA.B Linux4K") {
		t.Fatalf("missing usage message: %s", errb.String())
	}
}
