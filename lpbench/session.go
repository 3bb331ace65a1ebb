package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/lpnuma"
)

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string // per-run scratch directory for cache logs
	ledger   string // deterministic-count ledger shared by the runs of one build
}

// workloadDef is one workload. Every workload is the same session: a
// cold phase that simulates each of its cells once into a cache log,
// then a hit phase in which clients ask a daemon on that log for the
// cached cells again. The workloads differ in which cells they simulate
// and in whether the cold phase goes through the in-process Scheduler
// (declare != nil) or through the daemon's HTTP API.
type workloadDef struct {
	// declare lists the cells the cold phase submits, in order.
	declare func(seed uint64) ([]lpnuma.Request, error)
	// setupReps is how many times set-up is repeated; the median is
	// reported.
	setupReps int
}

var workloadByName = map[string]workloadDef{
	// Every experiment except dynamic: the paper-regenerating user's run.
	"paper": {declare: func(seed uint64) ([]lpnuma.Request, error) {
		return declare(seed, func(id string) bool { return id != "dynamic" })
	}, setupReps: 101},
	// Distinct small cells simulated through the daemon.
	"serve": {setupReps: 31},
}

func workloadNames() []string { return sortedSet(workloadByName) }

// minHitPhase is the shortest hit phase, even when the cold phase used
// up the run's budget.
const minHitPhase = 3 * time.Second

// session accumulates one run's measurements.
type session struct {
	opt  options
	def  workloadDef
	tr   *tracer // nil when untraced
	root span    // the workload's span

	tally

	setupS       []float64
	cold         *pass // the cold pass whose log the hit phase serves
	untracedWall float64
	digest       string
	hit          hitStats
	probe        *probe // the host's speed
	// stolen is the host's steal share in each measured phase. Set-up
	// lasts a fraction of a second, too short for the steal counter's
	// 10 ms ticks to resolve, so its times are scaled by speed alone.
	stolen     struct{ cold, hit float64 }
	totals     lpnuma.SweepStats // every scheduler of the run
	shed       uint64
	records    int
	logBytes   int64
	recoverMS  float64
	schedHitUS float64
	epoch      lpnuma.EpochBenchResult
	peakRSSMB  float64
}

// rig is what set-up builds: the cold phase's scheduler and store, or
// for the serve workload the daemon and its miss list.
type rig struct {
	log   string
	reqs  []lpnuma.Request
	sched *lpnuma.Scheduler
	store *lpnuma.Store
	list  []cell
	d     *daemon
}

func (r *rig) close() error {
	if r.d != nil {
		return r.d.stop()
	}
	return r.store.Close()
}

func (s *session) setUp(log string) (*rig, error) {
	r := &rig{log: log}
	if s.def.declare == nil {
		r.list = serveGrid(rand.New(rand.NewSource(int64(s.opt.seed))))
		d, err := startDaemon(log)
		if err != nil {
			return nil, err
		}
		r.d = d
		return r, nil
	}
	reqs, err := s.def.declare(s.opt.seed)
	if err != nil {
		return nil, err
	}
	r.reqs = reqs
	r.sched = lpnuma.NewScheduler(workers)
	st, err := lpnuma.OpenStore(log)
	if err != nil {
		return nil, err
	}
	r.store = st
	r.sched.SetStore(st)
	return r, nil
}

// runWorkload runs one workload end to end: set-up (repeated), the cold
// phase (twice when traced: once untraced for the overhead baseline),
// the hit phase, and the store recovery check.
func runWorkload(opt options) (_ *session, err error) {
	s := &session{opt: opt, def: workloadByName[opt.workload]}
	if s.probe, err = startProbe(); err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := s.probe.stop(); stopErr != nil && err == nil {
			err = fmt.Errorf("probe: %w", stopErr)
		}
	}()
	if err := s.probe.sample(probeBlock); err != nil {
		return nil, err
	}
	if opt.traced {
		s.tr = newTracer()
		s.root = s.tr.begin(0, "workload")
		defer s.tr.end(s.root, map[string]any{"workload": opt.workload, "seed": opt.seed})
	}
	if err := os.RemoveAll(opt.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opt.dir)

	var r *rig
	for i := 0; i < s.def.setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		// Each repetition starts from a collected heap, as set-up in a
		// fresh process does, so that where the collector's cycles fall
		// among the repetitions does not move the median.
		runtime.GC()
		t0 := time.Now()
		r, err = s.setUp(filepath.Join(opt.dir, fmt.Sprintf("setup%d.log", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	if err := s.probe.sample(probeBlock); err != nil {
		return nil, err
	}

	coldStart := time.Now()
	var baseDigest string
	if opt.traced {
		base := s.coldPass(r, false)
		s.untracedWall = base.wall
		s.add(&base.tally)
		if err := r.close(); err != nil {
			return nil, err
		}
		if baseDigest, err = digest(base.cells, base.results); err != nil {
			return nil, err
		}
		if r, err = s.setUp(filepath.Join(opt.dir, "traced.log")); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	steal := startSteal()
	s.cold = s.coldPass(r, opt.traced)
	s.stolen.cold = steal.share()
	s.add(&s.cold.tally)
	if s.digest, err = digest(s.cold.cells, s.cold.results); err != nil {
		return nil, err
	}
	if opt.traced && s.digest != baseDigest {
		s.problemf("traced and untraced cold passes simulated different results")
	}

	if len(s.cold.cells) == 0 {
		// Nothing to serve from cache: every cold operation failed, and
		// the failures are already counted.
		if err := r.close(); err != nil {
			s.problemf("close cold phase: %v", err)
		}
		return s, nil
	}
	if err := s.probe.sample(probeBlock); err != nil {
		return nil, err
	}
	d := r.d
	if d == nil {
		// The Scheduler workloads hand their log to a daemon, as
		// `lpnuma serve -cache` would after `lpnuma all -cache`.
		s.totals.Add(r.sched.Totals())
		if err := r.store.Close(); err != nil {
			return nil, fmt.Errorf("close cold log: %w", err)
		}
		if d, err = startDaemon(r.log); err != nil {
			return nil, fmt.Errorf("start daemon on cold log: %w", err)
		}
	}
	budget := time.Duration(opt.seconds)*time.Second - time.Since(coldStart)
	steal = startSteal()
	s.hitPhase(d, max(budget, minHitPhase))
	s.stolen.hit = steal.share()
	if err := s.probe.sample(probeBlock); err != nil {
		_ = d.stop() // the probe error is the one to report
		return nil, err
	}
	if err := s.daemonStats(d); err != nil {
		_ = d.stop() // the stats error is the one to report
		return nil, err
	}
	if opt.traced {
		s.schedHitUS = s.schedulerHitUS(d)
	}
	if err := d.stop(); err != nil {
		s.problemf("daemon shutdown: %v", err)
	}
	if err := s.recoverLog(r.log); err != nil {
		return nil, err
	}
	if opt.traced {
		cfg := lpnuma.DefaultConfig()
		cfg.WorkScale = 1.0
		cfg.Seed = simSeed(opt.seed)
		if s.epoch, err = lpnuma.BenchAnalyticEpoch("B", "CG.D", lpnuma.PolicyPTBaseline, cfg, 200); err != nil {
			return nil, fmt.Errorf("epoch bench: %w", err)
		}
	}
	s.peakRSSMB = peakRSSMB()
	return s, nil
}

// pass is one cold phase: every cell of the workload simulated (or
// answered by dedup) once.
type pass struct {
	wall    float64
	misses  []float64 // ms per operation that simulated
	cells   []cell    // distinct cells, first-seen order
	results map[cell]lpnuma.Result
	// Traced passes only: process-wide phase clock and the summed spans
	// it is compared against.
	phases  lpnuma.PhaseWall
	spanSum float64

	tally
}

// tally counts operations attempted and failed, with the reasons.
type tally struct {
	attempted, failed int
	httpFailed        int // failed requests to the daemon
	problems          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// problemf records a failed check that is not an operation.
func (t *tally) problemf(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.httpFailed += o.httpFailed
	t.problems = append(t.problems, o.problems...)
}

// record checks one answer and keeps the first result of each cell.
func (p *pass) record(c cell, res lpnuma.Result) {
	if res.TimedOut {
		p.fail("%s: simulation timed out", c)
	}
	if prev, ok := p.results[c]; ok {
		if prev != res {
			p.fail("%s: two answers for one cell differ", c)
		}
		return
	}
	p.results[c] = res
	p.cells = append(p.cells, c)
}

// coldPass runs the cold phase once. A traced pass records spans and
// turns the engine's phase clock on; an untraced one leaves both off.
func (s *session) coldPass(r *rig, traced bool) *pass {
	p := &pass{results: map[cell]lpnuma.Result{}}
	var tr *tracer
	if traced {
		tr = s.tr
		lpnuma.ResetPhaseWall()
		lpnuma.SetPhaseTracking(true)
		defer lpnuma.SetPhaseTracking(false)
	}
	phase := tr.begin(s.root.ID, "cold")
	if r.d != nil {
		coldHTTP(r, p, tr, phase.ID)
	} else {
		coldScheduler(r, p, tr, phase.ID)
	}
	tr.end(phase, nil)
	if traced {
		p.phases = lpnuma.PhaseWallSnapshot()
	}
	return p
}

// coldScheduler submits the declared cells one at a time to the
// 1-worker Scheduler; a call that simulated is a miss.
func coldScheduler(r *rig, p *pass, tr *tracer, phase int64) {
	start := time.Now()
	for _, req := range r.reqs {
		c := cellOf(req)
		var before lpnuma.PhaseWall
		if tr != nil {
			before = lpnuma.PhaseWallSnapshot()
		}
		sp := tr.begin(phase, "cell")
		t0 := time.Now()
		res, st, err := r.sched.Results([]lpnuma.Request{req})
		d := time.Since(t0)
		if tr != nil {
			tr.end(sp, map[string]any{"cell": c.String(), "runs": st.Runs, "phases": phaseDelta(lpnuma.PhaseWallSnapshot(), before)})
		}
		p.attempted++
		p.spanSum += d.Seconds()
		if err != nil {
			p.fail("%s: %v", c, err)
			continue
		}
		p.record(c, res[0])
		if st.Runs > 0 {
			p.misses = append(p.misses, ms(d))
		}
	}
	p.wall = time.Since(start).Seconds()
}

// coldHTTP has the clients split the miss list over /v1/run. With one
// simulation worker the simulations are serial, so the phase wall, not
// the sum of overlapping request spans, is the span the phases are
// compared against.
func coldHTTP(r *rig, p *pass, tr *tracer, phase int64) {
	type answer struct {
		resp serve.RunResponse
		err  error
		ms   float64
	}
	answers := make([]answer, len(r.list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(r.list) {
					return
				}
				sp := tr.begin(phase, "request")
				t0 := time.Now()
				resp, err := r.d.cl.Run(context.Background(), r.list[j].runRequest())
				answers[j] = answer{resp, err, ms(time.Since(t0))}
				tr.end(sp, map[string]any{"path": "/v1/run", "cell": r.list[j].String()})
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.spanSum = p.wall
	for j, a := range answers {
		c := r.list[j]
		p.attempted++
		switch {
		case a.err != nil:
			p.httpFailed++
			p.fail("%s: %v", c, a.err)
		case a.resp.Cached:
			p.fail("%s: a distinct cell was answered from cache", c)
		default:
			p.record(c, a.resp.Result)
			p.misses = append(p.misses, a.ms)
		}
	}
}

// hitPhase has the clients ask the daemon for cached cells in a closed
// loop until the budget runs out: 9 in 10 requests are /v1/run on one
// cell, the rest /v1/sweep over 16.
func (s *session) hitPhase(d *daemon, budget time.Duration) {
	cells, results := s.cold.cells, s.cold.results
	batches := findBatches(cells, rand.New(rand.NewSource(int64(s.opt.seed)+1)), 32)
	if len(batches) == 0 {
		s.problemf("no %d-cell sweep of cached cells exists", batchCells)
	}
	type clientLog struct {
		hits, batches []float64 // ms
		tally
	}
	logs := make([]clientLog, clients)
	phase := s.tr.begin(s.root.ID, "hit")
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(l *clientLog, rng *rand.Rand) {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				l.attempted++
				if len(batches) > 0 && rng.Intn(10) == 0 {
					b := batches[rng.Intn(len(batches))]
					sp := s.tr.begin(phase.ID, "request")
					t0 := time.Now()
					resp, err := d.cl.Sweep(ctx, b.req)
					l.batches = append(l.batches, ms(time.Since(t0)))
					s.tr.end(sp, map[string]any{"path": "/v1/sweep", "cells": len(b.cells)})
					if err != nil {
						l.httpFailed++
						l.fail("sweep %v: %v", b.cells[0], err)
						continue
					}
					checkSweep(&l.tally, b, resp, results)
					continue
				}
				c := cells[rng.Intn(len(cells))]
				sp := s.tr.begin(phase.ID, "request")
				t0 := time.Now()
				resp, err := d.cl.Run(ctx, c.runRequest())
				l.hits = append(l.hits, ms(time.Since(t0)))
				s.tr.end(sp, map[string]any{"path": "/v1/run", "cell": c.String()})
				switch {
				case err != nil:
					l.httpFailed++
					l.fail("%s: %v", c, err)
				case !resp.Cached:
					l.fail("%s: hit not answered from cache", c)
				case resp.Result != results[c]:
					l.fail("%s: hit differs from its miss", c)
				}
			}
		}(&logs[i], rand.New(rand.NewSource(int64(s.opt.seed)*1000+int64(i))))
	}
	wg.Wait()
	elapsed := time.Since(start)
	s.tr.end(phase, nil)
	var hits, sweeps []float64
	for i := range logs {
		hits = append(hits, logs[i].hits...)
		sweeps = append(sweeps, logs[i].batches...)
		s.add(&logs[i].tally)
	}
	s.hit = hitStats{
		p50:      percentile(hits, 50),
		p90:      percentile(hits, 90),
		batchP50: percentile(sweeps, 50),
		rps:      float64(len(hits)+len(sweeps)) / elapsed.Seconds(),
	}
}

// hitStats are the hit phase's figures, over the whole phase. The tail
// is the 90th percentile, not the 99th: a hit that loses its CPU to the
// hypervisor waits out a whole time slice, and on the host the bounds
// were set on steal time often exceeds 1% of the CPUs' time, which puts
// the 99th percentile among those hits and makes it a measure of the
// hypervisor's slice rather than of the program.
type hitStats struct {
	p50, p90, batchP50 float64 // ms
	rps                float64
}

func checkSweep(p *tally, b batch, resp serve.SweepResponse, results map[cell]lpnuma.Result) {
	if len(resp.Results) != len(b.cells) {
		p.fail("sweep %v: %d results for %d cells", b.cells[0], len(resp.Results), len(b.cells))
		return
	}
	if resp.Stats.Runs != 0 {
		p.fail("sweep %v: simulated %d cached cells", b.cells[0], resp.Stats.Runs)
	}
	for i, c := range b.cells {
		if resp.Results[i] != results[c] {
			p.fail("%s: sweep result differs from /v1/run", c)
		}
	}
}

// daemonStats reads the daemon's counters over the API: its scheduler
// totals join the run's, and every shed request counts as failed.
func (s *session) daemonStats(d *daemon) error {
	st, err := d.cl.Stats(context.Background())
	if err != nil {
		return fmt.Errorf("daemon stats: %w", err)
	}
	s.totals.Add(st.Totals)
	s.shed = st.Shed
	if st.Shed > 0 {
		s.failed += int(st.Shed)
		s.httpFailed += int(st.Shed)
		s.problemf("daemon shed %d requests", st.Shed)
	}
	return nil
}

// schedulerHitUS is the median in-process Scheduler answer for a cached
// cell: the part of an HTTP hit that is not the serve layer.
func (s *session) schedulerHitUS(d *daemon) float64 {
	const reps = 4000
	sched := d.srv.Scheduler()
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		c := s.cold.cells[i%len(s.cold.cells)]
		req, err := c.request()
		if err != nil {
			s.problemf("%s: %v", c, err)
			return 0
		}
		s.attempted++
		t0 := time.Now()
		res, st, err := sched.Results([]lpnuma.Request{req})
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		switch {
		case err != nil:
			s.fail("in-process hit on %s: %v", c, err)
		case st.Runs != 0:
			s.fail("in-process hit on %s simulated", c)
		case res[0] != s.cold.results[c]:
			s.fail("in-process hit on %s differs from its miss", c)
		}
	}
	return percentile(samples, 50)
}

// recoverLog reopens the final cache log: its record count must equal
// the distinct cells simulated.
func (s *session) recoverLog(log string) error {
	fi, err := os.Stat(log)
	if err != nil {
		return err
	}
	s.logBytes = fi.Size()
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := lpnuma.OpenStore(log)
		if err != nil {
			return fmt.Errorf("recover cache log: %w", err)
		}
		times = append(times, ms(time.Since(t0)))
		s.records = st.Len()
		if err := st.Close(); err != nil {
			return err
		}
	}
	s.recoverMS = percentile(times, 50)
	if s.records != len(s.cold.cells) {
		s.problemf("store recovered %d records for %d distinct cells", s.records, len(s.cold.cells))
	}
	return nil
}

func phaseDelta(after, before lpnuma.PhaseWall) lpnuma.PhaseWall {
	return lpnuma.PhaseWall{
		AllocSeconds:  after.AllocSeconds - before.AllocSeconds,
		PriceSeconds:  after.PriceSeconds - before.PriceSeconds,
		MergeSeconds:  after.MergeSeconds - before.MergeSeconds,
		DaemonSeconds: after.DaemonSeconds - before.DaemonSeconds,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
