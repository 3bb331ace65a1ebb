// Package runcache is the shared concurrent sweep engine behind the
// experiments layer: a Scheduler accepts the union of every simulation
// cell the experiments declare, deduplicates identical
// (machine, workload, policy, seed, config) cells against a
// content-addressed result cache, executes each unique cell exactly once
// on a bounded worker pool, and fans the results back out to every
// caller that asked. Because each simulation is deterministic and cells
// are identified by content (not by which experiment requested them
// first), scheduler output is identical for any worker count.
package runcache

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/parallel"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Key is the content address of one simulation cell. Two requests with
// equal Keys are guaranteed (by engine determinism) to produce identical
// results, so the scheduler runs them once.
type Key struct {
	Machine, Workload, Policy string
	// Seed is the effective engine seed after the runner's override rule
	// (Request.Seed when non-zero, else the config's own seed).
	Seed uint64
	// CfgHash fingerprints every remaining engine-configuration field
	// (sim.Config.Hash).
	CfgHash uint64
}

// String renders the key for progress lines and error messages.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Machine, k.Workload, k.Policy)
}

// KeyOf computes the content address of a request, normalizing the
// machine name and the seed-override rule applied by runner.Run so that
// requests that would run identical simulations map to the same Key.
func KeyOf(req runner.Request) Key {
	cfg := sim.DefaultConfig()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	seed := req.Seed
	if seed == 0 {
		seed = cfg.Seed
	}
	cfg.Seed = 0 // superseded by the effective seed above
	return Key{
		Machine:  strings.ToUpper(req.Machine),
		Workload: req.Workload,
		Policy:   req.Policy,
		Seed:     seed,
		CfgHash:  cfg.Hash(),
	}
}

// Stats describes one Results batch from the caller's point of view.
type Stats struct {
	// Requested is the number of cells the batch asked for, duplicates
	// included.
	Requested int
	// Unique is the number of distinct cells in the batch.
	Unique int
	// Hits is the number of distinct cells already resident in the
	// in-memory cache from earlier batches (cross-experiment reuse).
	Hits int
	// DiskHits is the number of distinct cells answered from the
	// persistent store (cross-invocation reuse); always 0 without an
	// attached store.
	DiskHits int
	// Runs is the number of cells this batch actually executed.
	Runs int
}

// Deduped is the number of requests answered without a fresh simulation:
// intra-batch duplicates plus cache hits.
func (s Stats) Deduped() int { return s.Requested - s.Runs }

// Add accumulates batch statistics.
func (s *Stats) Add(o Stats) {
	s.Requested += o.Requested
	s.Unique += o.Unique
	s.Hits += o.Hits
	s.DiskHits += o.DiskHits
	s.Runs += o.Runs
}

// cell is one cached (or in-flight) simulation. refs counts the batches
// currently interested in the cell; while the cell is in flight, ctx is
// its run context and cancel tears it down. Both single-flight joins
// and cancellation hang off this: concurrent identical requests share
// one cell (and one simulation), and the run is canceled only when
// every interested batch has gone away — one client interrupting a
// sweep never aborts a cell another client is still waiting on.
type cell struct {
	done   chan struct{} // closed when res/err are valid
	res    sim.Result
	err    error
	refs   int                // interested batches; guarded by Scheduler.mu
	ctx    context.Context    // run context while in flight
	cancel context.CancelFunc // nil once the run has completed
}

// Scheduler deduplicates and executes simulation cells on a bounded
// worker pool, caching every result for the lifetime of the scheduler.
// A zero-value Scheduler is not usable; call New.
type Scheduler struct {
	workers int
	// pool is the scheduler-wide worker-token budget. Each running cell
	// holds one token, and the engine inside the cell borrows any free
	// tokens as extra intra-run pricing workers (see sim.Config.Pool), so
	// the -j budget bounds total host parallelism across both layers:
	// while the sweep is wide every token drives a distinct simulation,
	// and in the tail the idle tokens speed up the stragglers.
	pool *parallel.Pool
	// Progress, when non-nil, is called after each executed (not cached)
	// cell completes, with the number of cells finished so far in the
	// current batch and the batch's total. Calls are serialized (under a
	// dedicated lock, so callbacks must not call back into the
	// scheduler's batch being reported) but their order across cells
	// follows completion order, which depends on the worker count —
	// route Progress output to logs, never into results.
	Progress func(done, total int, key Key)

	run func(context.Context, runner.Request) (sim.Result, error) // runner.RunContext, replaceable in tests

	mu         sync.Mutex
	cells      map[Key]*cell
	store      *Store // persistent tier, nil unless SetStore attached one
	totals     Stats
	progressMu sync.Mutex
	wg         sync.WaitGroup // all in-flight cell goroutines, for Drain
}

// New builds a scheduler executing at most workers simulations
// concurrently — a scheduler-wide bound that holds even across
// concurrent Results batches; workers <= 0 selects runtime.NumCPU().
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Scheduler{
		workers: workers,
		pool:    parallel.NewPool(workers),
		run:     runner.RunContext,
		cells:   map[Key]*cell{},
	}
}

// Workers reports the worker-pool bound.
func (s *Scheduler) Workers() int { return s.workers }

// SetStore attaches a persistent cache tier: cells found in the store
// are answered without simulation (Stats.DiskHits), and every freshly
// executed cell is appended to the store's crash-safe log before its
// completion is announced. Attach the store before the first Results
// batch; the store is not detached or closed by the scheduler.
func (s *Scheduler) SetStore(st *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// Drain blocks until every in-flight cell goroutine has finished —
// after canceling a batch, Drain is the barrier that makes "no
// simulation is still running, the store is quiescent" true, which
// shutdown paths need before flushing and closing the store.
func (s *Scheduler) Drain() { s.wg.Wait() }

// CompletedKeys lists every cell completed successfully so far, sorted,
// so an interrupted sweep can report exactly which cells survive in the
// cache (and, with a store attached, on disk).
func (s *Scheduler) CompletedKeys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.cells))
	for k, c := range s.cells {
		select {
		case <-c.done:
			if c.err == nil {
				out = append(out, k)
			}
		default:
		}
	}
	sortKeys(out)
	return out
}

// sortKeys orders cell keys by (Machine, Workload, Policy, Seed,
// CfgHash), the listing order of CompletedKeys and Store.Keys.
func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Machine != keys[j].Machine {
			return keys[i].Machine < keys[j].Machine
		}
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		if keys[i].Policy != keys[j].Policy {
			return keys[i].Policy < keys[j].Policy
		}
		if keys[i].Seed != keys[j].Seed {
			return keys[i].Seed < keys[j].Seed
		}
		return keys[i].CfgHash < keys[j].CfgHash
	})
}

// withPool hands the scheduler's token pool to the cell's engine so
// intra-run parallelism draws from the same -j budget. The request's own
// configuration is copied, never mutated (requests may be shared across
// batches), and the pool cannot change the cell's result — only how fast
// it arrives.
func (s *Scheduler) withPool(req runner.Request) runner.Request {
	cfg := sim.DefaultConfig()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	cfg.Pool = s.pool
	req.Cfg = &cfg
	return req
}

// Totals reports lifetime statistics accumulated over every Results
// batch.
func (s *Scheduler) Totals() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// CachedCells reports how many unique cells the cache holds (complete or
// in flight).
func (s *Scheduler) CachedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Results resolves every request, in request order, with no
// cancellation: it is ResultsContext under the background context.
func (s *Scheduler) Results(reqs []runner.Request) ([]sim.Result, Stats, error) {
	return s.ResultsContext(context.Background(), reqs)
}

// batchProgress carries one batch's completion counter for Progress
// callbacks (guarded by Scheduler.mu).
type batchProgress struct {
	done, total int
}

// ResultsContext resolves every request, in request order: cells
// already cached (in memory or in the attached store) are answered
// immediately, identical requests within the batch collapse to one
// execution, and the remaining unique cells run concurrently on the
// worker pool. The first error in request order aborts the batch.
// Completed cells stay cached; failed or canceled cells are evicted, so
// an error is never served to a later identical request — it re-runs
// instead. Results are deterministic for any worker count.
//
// Canceling ctx aborts the batch promptly: the batch stops waiting,
// and each of its in-flight cells is canceled as soon as no other
// concurrent batch is interested in it (cells another batch shares run
// on). Cells that completed before the cancellation remain cached.
func (s *Scheduler) ResultsContext(ctx context.Context, reqs []runner.Request) ([]sim.Result, Stats, error) {
	out, _, stats, err := s.KeyedResultsContext(ctx, reqs)
	return out, stats, err
}

// KeyedResultsContext is ResultsContext that also returns each request's
// Key, in request order, for callers that index their own per-cell state
// by content address.
func (s *Scheduler) KeyedResultsContext(ctx context.Context, reqs []runner.Request) ([]sim.Result, []Key, Stats, error) {
	keys := make([]Key, len(reqs))
	var fresh []Key // cells this batch must execute, in request order
	var stats Stats
	stats.Requested = len(reqs)

	// Phase 1: join or create the batch's cells, taking one reference on
	// each unique cell (released when the batch returns).
	joined := make(map[Key]*cell, len(reqs))
	s.mu.Lock()
	store := s.store
	for i, req := range reqs {
		k := KeyOf(req)
		keys[i] = k
		if _, ok := joined[k]; ok {
			continue
		}
		stats.Unique++
		if c, ok := s.cells[k]; ok {
			stats.Hits++
			c.refs++
			joined[k] = c
			continue
		}
		c := &cell{done: make(chan struct{}), refs: 1}
		if store != nil {
			if res, ok := store.Get(k); ok {
				stats.DiskHits++
				c.res = res
				close(c.done)
				s.cells[k] = c
				joined[k] = c
				continue
			}
		}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		s.cells[k] = c
		joined[k] = c
		fresh = append(fresh, k)
	}
	stats.Runs = len(fresh)
	s.totals.Add(stats)
	s.mu.Unlock()
	defer s.releaseCells(joined)

	// Phase 2: execute the batch's fresh cells on the bounded pool.
	// reqByKey maps each fresh key to the first request that named it
	// (all requests with the same key are interchangeable by
	// construction).
	if len(fresh) > 0 {
		reqByKey := make(map[Key]runner.Request, len(fresh))
		for i, req := range reqs {
			if _, ok := reqByKey[keys[i]]; !ok {
				reqByKey[keys[i]] = req
			}
		}
		bp := &batchProgress{total: len(fresh)}
		for _, k := range fresh {
			s.wg.Add(1)
			go s.runCell(k, joined[k], reqByKey[k], store, bp)
		}
	}

	// Phase 3: fan results back out in request order; this also waits
	// for cells another concurrent batch is still executing.
	out := make([]sim.Result, len(reqs))
	for i, k := range keys {
		c := joined[k]
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, nil, stats, ctx.Err()
		}
		if c.err != nil {
			return nil, nil, stats, fmt.Errorf("runcache: cell %s: %w", k, c.err)
		}
		out[i] = c.res
	}
	return out, keys, stats, nil
}

// runCell executes one fresh cell under its own context, persists the
// result, and wakes every waiter. A failed or canceled cell is evicted
// from the cache before waiters wake, so a later identical request
// re-runs the cell instead of inheriting the failure.
func (s *Scheduler) runCell(k Key, c *cell, req runner.Request, store *Store, bp *batchProgress) {
	defer s.wg.Done()
	var res sim.Result
	err := s.pool.AcquireCtx(c.ctx) // scheduler-wide token, shared across batches
	if err == nil {
		res, err = s.run(c.ctx, s.withPool(req))
		s.pool.Release()
	}
	if err == nil && store != nil {
		// Persist before announcing completion: any cell a waiter or
		// progress line has seen as done is already in the log, so an
		// interrupt arriving between the two loses nothing.
		store.Put(k, res)
	}
	s.mu.Lock()
	c.res, c.err = res, err
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	if err != nil && s.cells[k] == c {
		delete(s.cells, k)
	}
	bp.done++
	n := bp.done
	progress := s.Progress
	s.mu.Unlock()
	// Report progress before waking waiters: once close(c.done) lets a
	// batch return, no callback for that batch may still be running.
	if progress != nil {
		s.progressMu.Lock()
		progress(n, bp.total, k)
		s.progressMu.Unlock()
	}
	close(c.done)
}

// releaseCells drops one batch's reference on each of its cells; a cell
// still in flight with no interested batch left is canceled.
func (s *Scheduler) releaseCells(joined map[Key]*cell) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range joined {
		c.refs--
		if c.refs == 0 && c.cancel != nil {
			c.cancel()
		}
	}
}
