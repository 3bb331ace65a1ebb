package runcache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

func testResult(seed uint64) sim.Result {
	return sim.Result{
		Machine:        "A",
		Workload:       "CG.D",
		Policy:         "THP",
		RuntimeSeconds: 1.5 + float64(seed),
		Epochs:         int(seed) + 3,
		LARPct:         37.25,
		FaultCounts:    [3]uint64{seed * 100, seed, 0},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = KeyOf(req("A", "CG.D", "THP", uint64(i+1)))
		if err := st.Put(keys[i], testResult(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs := st2.Recovered(); rs.Cells != 5 || rs.TruncatedBytes != 0 || rs.Reset {
		t.Fatalf("recovery = %+v, want 5 clean cells", rs)
	}
	for i, k := range keys {
		res, ok := st2.Get(k)
		if !ok {
			t.Fatalf("cell %d missing after reopen", i)
		}
		if res != testResult(uint64(i+1)) {
			t.Fatalf("cell %d corrupted round-tripping: %+v", i, res)
		}
	}
}

// TestStoreTornTailTruncated models a crash mid-append: every prefix of
// a valid log must recover exactly the records whose bytes are complete
// and drop the torn remainder, so a kill -9 never loses a completed
// cell or serves a damaged one.
func TestStoreTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	k1 := KeyOf(req("A", "CG.D", "THP", 1))
	k2 := KeyOf(req("A", "CG.D", "THP", 2))
	if err := st.Put(k1, testResult(1)); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(k2, testResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the second record at every possible byte boundary.
	for cut := len(whole) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		rs := st.Recovered()
		if rs.Cells != 1 || rs.TruncatedBytes != int64(cut-len(whole)) {
			t.Fatalf("cut at %d: recovery = %+v, want 1 cell, %d torn bytes", cut, rs, cut-len(whole))
		}
		if _, ok := st.Get(k1); !ok {
			t.Fatalf("cut at %d: completed cell lost", cut)
		}
		if _, ok := st.Get(k2); ok {
			t.Fatalf("cut at %d: torn cell served", cut)
		}
		// The log must stay appendable after truncation: re-adding the
		// torn cell and reopening yields both.
		if err := st.Put(k2, testResult(2)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Len() != 2 {
			t.Fatalf("cut at %d: %d cells after repair, want 2", cut, st2.Len())
		}
		st2.Close()
		// Restore the full log for the next cut.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCorruptRecordStopsRecovery flips a payload byte mid-log: the
// checksum must reject the record and recovery must keep only the valid
// prefix (everything after a corrupt record is untrusted).
func TestStoreCorruptRecordStopsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var off1 int64
	for i := 1; i <= 3; i++ {
		if err := st.Put(KeyOf(req("A", "CG.D", "THP", uint64(i))), testResult(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			off1 = fi.Size()
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off1+20] ^= 0xff // corrupt the second record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rs := st2.Recovered()
	if rs.Cells != 1 {
		t.Fatalf("recovered %d cells after mid-log corruption, want 1", rs.Cells)
	}
	if rs.TruncatedBytes != int64(len(data))-off1 {
		t.Fatalf("truncated %d bytes, want %d", rs.TruncatedBytes, int64(len(data))-off1)
	}
	if _, ok := st2.Get(KeyOf(req("A", "CG.D", "THP", 1))); !ok {
		t.Fatal("valid prefix record lost")
	}
}

// TestStoreForeignFileReset: a cache path pointing at a file that is not
// a runcache log (the corrupted-cache fault-injection trigger) must
// restart the log instead of erroring out or misparsing.
func TestStoreForeignFileReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	if err := os.WriteFile(path, []byte("this is definitely not a runcache log\x00\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := st.Recovered()
	if !rs.Reset || rs.Cells != 0 {
		t.Fatalf("recovery = %+v, want a reset", rs)
	}
	k := KeyOf(req("A", "CG.D", "THP", 1))
	if err := st.Put(k, testResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("%d cells after reset+put, want 1", st2.Len())
	}
}

// TestSchedulerAnswersFromStore: a scheduler with a warm store performs
// zero simulations and reports the reuse as DiskHits.
func TestSchedulerAnswersFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []runner.Request{
		req("A", "w1", "THP", 1),
		req("A", "w2", "THP", 1),
		req("A", "w1", "THP", 1), // intra-batch duplicate
	}

	fake := newFakeRunner()
	s := New(2)
	s.run = fake.run
	s.SetStore(st)
	first, _, err := s.Results(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if fake.executions() != 2 {
		t.Fatalf("cold pass executed %d cells, want 2", fake.executions())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh scheduler (fresh process, conceptually) over the same log.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fake2 := newFakeRunner()
	s2 := New(2)
	s2.run = fake2.run
	s2.SetStore(st2)
	second, stats, err := s2.Results(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if fake2.executions() != 0 {
		t.Fatalf("warm pass executed %d cells, want 0", fake2.executions())
	}
	if stats.Runs != 0 || stats.DiskHits != 2 {
		t.Fatalf("warm stats = %+v, want Runs 0, DiskHits 2", stats)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("result %d differs across invocations: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestStoreSkipsFailedCells: only successes are persisted; a failed
// cell must not be on disk for a later invocation to trust.
func TestStoreSkipsFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := newFakeRunner()
	s := New(2)
	s.run = fake.run
	s.SetStore(st)
	_, _, err = s.Results([]runner.Request{req("A", "boom", "THP", 1)})
	if err == nil {
		t.Fatal("want synthetic failure")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 0 {
		t.Fatalf("failed cell persisted: %d cells on disk", st2.Len())
	}
}

// TestResultsContextCanceled: a canceled batch returns promptly with
// the context error, and its sole-interest in-flight cell is canceled
// and evicted so a later identical request re-runs it.
func TestResultsContextCanceled(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int
	var mu sync.Mutex
	s := New(2)
	s.run = func(ctx context.Context, _ runner.Request) (sim.Result, error) {
		mu.Lock()
		runs++
		first := runs == 1
		mu.Unlock()
		if !first {
			return sim.Result{RuntimeSeconds: 42}, nil
		}
		close(started)
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-release:
			return sim.Result{RuntimeSeconds: 1}, nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.ResultsContext(ctx, []runner.Request{req("A", "w", "THP", 1)})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	s.Drain() // the cell goroutine observes the cancel and evicts the cell
	close(release)

	// The canceled cell must not poison the cache: an identical request
	// re-runs and succeeds.
	res, stats, err := s.Results([]runner.Request{req("A", "w", "THP", 1)})
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if res[0].RuntimeSeconds != 42 {
		t.Fatalf("retry served stale result %+v", res[0])
	}
	if stats.Runs != 1 {
		t.Fatalf("retry stats = %+v, want a fresh run", stats)
	}
}

// TestCancelSparesSharedCells: canceling one batch must not abort a
// cell another concurrent batch is still waiting on.
func TestCancelSparesSharedCells(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(2)
	var once sync.Once
	s.run = func(ctx context.Context, _ runner.Request) (sim.Result, error) {
		once.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-release:
			return sim.Result{RuntimeSeconds: 7}, nil
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.ResultsContext(ctx1, []runner.Request{req("A", "w", "THP", 1)})
		errc <- err
	}()
	<-started

	// Second batch joins the same in-flight cell.
	resc := make(chan []sim.Result, 1)
	go func() {
		res, _, err := s.Results([]runner.Request{req("A", "w", "THP", 1)})
		if err != nil {
			t.Errorf("surviving batch failed: %v", err)
		}
		resc <- res
	}()
	// Wait until the second batch has registered its interest (Hits
	// counts the join).
	for {
		if s.Totals().Hits >= 1 {
			break
		}
	}

	cancel1()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v", err)
	}
	close(release)
	res := <-resc
	if len(res) != 1 || res[0].RuntimeSeconds != 7 {
		t.Fatalf("shared cell result = %+v, want RuntimeSeconds 7", res)
	}
}

// TestFailedCellWakesAllWaiters: two batches waiting on one failing
// cell must both receive the error — no deadlock, no hung waiter.
func TestFailedCellWakesAllWaiters(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(2)
	var once sync.Once
	s.run = func(ctx context.Context, _ runner.Request) (sim.Result, error) {
		once.Do(func() { close(started) })
		<-release
		return sim.Result{}, errors.New("mid-sweep failure")
	}
	errs := make(chan error, 2)
	go func() {
		_, _, err := s.Results([]runner.Request{req("A", "w", "THP", 1)})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := s.Results([]runner.Request{req("A", "w", "THP", 1)})
		errs <- err
	}()
	for s.Totals().Hits < 1 {
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "mid-sweep failure") {
			t.Fatalf("waiter %d got %v, want the cell's failure", i, err)
		}
	}
	if s.CachedCells() != 0 {
		t.Fatalf("failed cell still cached (%d cells)", s.CachedCells())
	}
}

// TestCompletedKeysReportsSurvivors: after a partial failure, the
// completed-cell listing names exactly the successes, sorted.
func TestCompletedKeysReportsSurvivors(t *testing.T) {
	fake := newFakeRunner()
	s := New(2)
	s.run = fake.run
	_, _, err := s.Results([]runner.Request{
		req("A", "w2", "THP", 1),
		req("A", "w1", "THP", 1),
		req("B", "boom", "THP", 1),
	})
	if err == nil {
		t.Fatal("want synthetic failure")
	}
	keys := s.CompletedKeys()
	if len(keys) != 2 {
		t.Fatalf("completed = %v, want 2 cells", keys)
	}
	if keys[0].Workload != "w1" || keys[1].Workload != "w2" {
		t.Fatalf("completed keys unsorted: %v", keys)
	}
}

// FuzzStoreRecover writes arbitrary bytes as a log and opens it. Open
// must not fail or panic; recovery must keep a prefix of the bytes (the
// magic header alone when it resets a foreign file); reopening must
// find the same cells and nothing more to truncate; and a Put after
// recovery must survive a reopen. Each reopen follows a kill: the file
// is closed without Close's fsync, which also keeps an execution fast
// enough for the fuzzer to minimize what it finds.
func FuzzStoreRecover(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed.log")
	st, err := OpenStore(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if err := st.Put(KeyOf(req("A", "CG.D", "THP", i)), testResult(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-7])
	f.Add([]byte{})
	f.Add([]byte("not a runcache log"))

	path := filepath.Join(f.TempDir(), "cache.log") // one per fuzzing process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		kill := func(st *Store) { st.f.Close() }
		open := func() (*Store, []byte) {
			t.Helper()
			st, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return st, kept
		}
		st, kept := open()
		rs := st.Recovered()
		switch {
		case rs.Reset:
			if string(kept) != storeMagic || rs.Cells != 0 || rs.TruncatedBytes != int64(len(data)) {
				t.Fatalf("reset kept %q, recovery %+v", kept, rs)
			}
		case len(data) == 0:
			if string(kept) != storeMagic {
				t.Fatalf("empty log initialised to %q", kept)
			}
		default:
			if !bytes.HasPrefix(data, kept) || int64(len(data)-len(kept)) != rs.TruncatedBytes || rs.Cells != st.Len() {
				t.Fatalf("kept %d of %d bytes, recovery %+v", len(kept), len(data), rs)
			}
		}
		keys := st.Keys()
		kill(st)

		// Reopening is idempotent: same bytes, same cells, nothing torn.
		st, again := open()
		if rs := st.Recovered(); !bytes.Equal(again, kept) || rs.Reset || rs.TruncatedBytes != 0 || !slices.Equal(st.Keys(), keys) {
			t.Fatalf("reopen changed the log: %d→%d bytes, recovery %+v", len(kept), len(again), rs)
		}

		// A cell put after recovery survives the next reopen.
		k := KeyOf(req("B", "UA.B", "Linux4K", 99))
		want, had := st.Get(k)
		if !had {
			want = testResult(99)
		}
		if err := st.Put(k, want); err != nil {
			t.Fatal(err)
		}
		kill(st)
		st, _ = open()
		defer kill(st)
		if got, ok := st.Get(k); !ok || got != want || st.Recovered().TruncatedBytes != 0 {
			t.Fatalf("cell put after recovery lost on reopen: %v %+v, recovery %+v", ok, got, st.Recovered())
		}
		for _, old := range keys {
			if _, ok := st.Get(old); !ok {
				t.Fatalf("recovered cell %s lost after an append", old)
			}
		}
	})
}
