package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host the bounds were set on is a virtual machine shared with other
// tenants, and it interferes with a run in two ways that the program
// under test has no part in. For minutes at a time the same computation
// runs up to 50% slower, in process CPU time as well as in wall time;
// and the hypervisor takes CPU time away from the guest altogether
// (steal time), at times a sixth of it. Every time metric is therefore
// reported as it would read on a calm host with its CPUs to itself:
//
//	reported = clock reading × probeCalmMS / probe median × (1 − stolen share)
//
// (a rate is divided by the same factor; set-up, too short for the steal
// counter to resolve, is scaled by speed alone). The probe is a fixed kernel of
// the benchmark's own code that chases pointers through a working set far
// larger than the L2 cache and hashes what it reads, as the engine's
// page-table and cache-profile walks do; its median time over a run is
// the host's speed. The stolen share is the steal time the kernel
// reports in /proc/stat during the metric's phase, over the phase's
// CPU time (CPUs × wall). A program change can move neither; only the
// host can. Every run prints both, and the clock readings unscaled.
//
// The probe runs in a child process of the benchmark's own executable,
// and only while the measured process waits for it, so that its working
// set touches neither the measured process's heap, garbage-collector
// pacing and peak RSS, nor its CPU time.
const (
	probeWords  = 4 << 20 // 16 MiB of uint32 links
	probeSteps  = 1 << 16 // links followed per chain in one probe
	probeChains = 4       // independent chains, for memory-level parallelism
	probeBlock  = 32      // probes per block
	// probeCalmMS is the median probe time on the host the bounds were
	// set on, in a calm stretch. It only fixes the scale of the reported
	// figures; it cancels out of every comparison between two runs.
	probeCalmMS = 3.0
)

// probe is the measured process's side of the probe child.
type probe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
	ms  []float64 // every probe time, in the order taken
}

// startProbe starts the child and waits until its working set is built.
func startProbe() (*probe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start probe: %w", err)
	}
	p := &probe{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	if err := p.sample(0); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// sample has the child run n probes back to back and waits for their
// times.
func (p *probe) sample(n int) error {
	if _, err := fmt.Fprintln(p.in, n); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if !p.out.Scan() {
		return fmt.Errorf("probe ended early: %v", p.out.Err())
	}
	for _, f := range strings.Fields(p.out.Text()) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		p.ms = append(p.ms, v)
	}
	return nil
}

// stop ends the child and waits for it.
func (p *probe) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// factor is how much faster than calm the host ran.
func (p *probe) factor() float64 {
	return probeCalmMS / percentile(p.ms, 50)
}

// stealClock measures the share of the CPUs' time the hypervisor took
// during one phase.
type stealClock struct {
	start time.Time
	steal float64
}

func startSteal() stealClock { return stealClock{time.Now(), stealSeconds()} }

// share is the stolen share of the CPU time since start.
func (c stealClock) share() float64 {
	cpu := float64(runtime.NumCPU()) * time.Since(c.start).Seconds()
	return min(max((stealSeconds()-c.steal)/cpu, 0), 0.9)
}

// stealSeconds is the host's cumulative steal time over all CPUs, from
// the "cpu" line of /proc/stat (in USER_HZ ticks of 1/100 s), or 0 where
// it is not available.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// serveProbe is the child: it builds the working set, then for each
// count n read from in runs n probes and writes their times in
// milliseconds as one line, until in closes.
func serveProbe(in io.Reader, out io.Writer) error {
	order := make([]uint32, probeWords)
	for i := range order {
		order[i] = uint32(i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	next := make([]uint32, probeWords) // one random cycle through every word
	for i, w := range order {
		next[w] = order[(i+1)%probeWords]
	}
	order = nil
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(out)
	var sink uint32
	for sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sink ^= chase(next)
			fmt.Fprintf(w, "%g ", ms(time.Since(t0)))
		}
		fmt.Fprintln(w)
		if err := w.Flush(); err != nil {
			return err
		}
	}
	probeSink = sink
	return sc.Err()
}

// probeSink keeps the chases from being optimised away.
var probeSink uint32

// chase is one probe: probeChains chains of probeSteps dependent loads,
// mixed into a hash.
func chase(next []uint32) uint32 {
	var c [probeChains]uint32
	for i := range c {
		c[i] = uint32(i * len(next) / probeChains)
	}
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeSteps; i++ {
		for j := range c {
			c[j] = next[c[j]]
		}
		h = (h ^ uint64(c[0]^c[1]^c[2]^c[3])) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return uint32(h)
}
