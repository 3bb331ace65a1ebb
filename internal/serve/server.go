package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// maxSweepCells bounds one sweep request's cross product, so a single
// request cannot monopolize the daemon for hours.
const maxSweepCells = 4096

// maxBodyBytes bounds request bodies; a full sweep spec is tiny.
const maxBodyBytes = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Workers caps concurrent simulations (<= 0 selects the host's CPU
	// count, as the CLI's -j does).
	Workers int
	// MaxInflight bounds concurrently admitted requests; beyond it the
	// daemon sheds with 429. <= 0 defaults to 4x the worker count.
	MaxInflight int
	// CachePath, when non-empty, opens the persistent cache tier there.
	CachePath string
	// DrainTimeout bounds graceful shutdown (0 means 30s).
	DrainTimeout time.Duration
}

// readTimeout and writeTimeout guard against stalled clients holding
// connections. The write bound is long because a sweep streams back a
// large body only after its simulations finish.
const (
	readTimeout  = 30 * time.Second
	writeTimeout = 5 * time.Minute
)

// Server is the daemon. Create with New, run with Serve.
type Server struct {
	cfg      Config
	sched    *runcache.Scheduler
	store    *runcache.Store
	admit    chan struct{}
	shed     atomic.Uint64
	draining atomic.Bool

	// encoded holds each answered cell's result JSON by content
	// address. A cell's result never changes, so every later answer
	// is written from these bytes instead of re-encoding the result.
	encMu   sync.Mutex
	encoded map[runcache.Key][]byte
}

// New builds a server, opening (and recovering) the persistent cache
// when configured. Close releases the cache log.
func New(cfg Config) (*Server, error) {
	sched := runcache.New(cfg.Workers)
	s := &Server{cfg: cfg, sched: sched, encoded: map[runcache.Key][]byte{}}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * sched.Workers()
		s.cfg.MaxInflight = cfg.MaxInflight
	}
	s.admit = make(chan struct{}, cfg.MaxInflight)
	if cfg.CachePath != "" {
		st, err := runcache.OpenStore(cfg.CachePath)
		if err != nil {
			return nil, err
		}
		s.store = st
		sched.SetStore(st)
	}
	return s, nil
}

// Scheduler exposes the underlying sweep engine (tests and the in-process
// benchmark harness observe single-flighting through its Totals).
func (s *Server) Scheduler() *runcache.Scheduler { return s.sched }

// Store returns the persistent tier, or nil when none is configured.
func (s *Server) Store() *runcache.Store { return s.store }

// Handler returns the daemon's HTTP handler (exposed for httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// Serve runs the daemon on ln until ctx is canceled, then drains: it
// stops admitting, lets every admitted request finish (bounded by
// DrainTimeout), waits out in-flight cell goroutines, and flushes and
// closes the cache log. Returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  readTimeout,
		WriteTimeout: writeTimeout,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.draining.Store(true)
		drainTO := s.cfg.DrainTimeout
		if drainTO == 0 {
			drainTO = 30 * time.Second
		}
		shCtx, cancel := context.WithTimeout(context.Background(), drainTO)
		defer cancel()
		done <- srv.Shutdown(shCtx) // waits for in-flight handlers
	}()
	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	shErr := <-done
	s.sched.Drain() // cell goroutines released by canceled handlers
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && shErr == nil {
			shErr = cerr
		}
	}
	return shErr
}

// Close releases the cache log; for servers whose Serve never ran.
func (s *Server) Close() error {
	s.sched.Drain()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// tryAdmit implements bounded admission. It never blocks: a full
// admission queue sheds the request immediately, so saturation costs
// clients one round trip instead of an unbounded queue delay.
func (s *Server) tryAdmit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining: server is shutting down")
		return false
	}
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("saturated: %d requests already admitted", s.cfg.MaxInflight))
		return false
	}
}

func (s *Server) release() { <-s.admit }

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.tryAdmit(w) {
		return
	}
	defer s.release()
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cell, err := cellRequest(req.Machine, req.Workload, req.Policy, req.Seed, req.Mode, req.Scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	results, keys, stats, err := s.sched.KeyedResultsContext(r.Context(), []runner.Request{cell})
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	res, err := s.resultJSON(keys[0], results[0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	frames, err := runFrames()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f := frames[0]
	if stats.Runs == 0 {
		f = frames[1]
	}
	writeBody(w, f.body(res))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.tryAdmit(w) {
		return
	}
	defer s.release()
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cells, err := sweepCells(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	results, keys, stats, err := s.sched.KeyedResultsContext(r.Context(), cells)
	if err != nil {
		writeRunError(w, r, err)
		return
	}
	// Results nil encodes as null: the frame is cut there and opens and
	// closes the list itself.
	f, err := frameOf(SweepResponse{Stats: stats}, []byte("null"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f.before, f.after = append(f.before, '['), append([]byte{']'}, f.after...)
	encoded := make([][]byte, len(results))
	for i, res := range results {
		if encoded[i], err = s.resultJSON(keys[i], res); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	writeBody(w, f.body(encoded...))
}

// resultJSON returns the JSON of res, the scheduler's answer for the
// cell at k, encoding it only on the cell's first answer.
func (s *Server) resultJSON(k runcache.Key, res sim.Result) ([]byte, error) {
	s.encMu.Lock()
	b, ok := s.encoded[k]
	s.encMu.Unlock()
	if ok {
		return b, nil
	}
	b, err := encodeJSON(res)
	if err != nil {
		return nil, fmt.Errorf("serve: encode %s: %w", k, err)
	}
	s.encMu.Lock()
	s.encoded[k] = b
	s.encMu.Unlock()
	return b, nil
}

// A frame is a response's encoding cut around its results: a body is
// before, the results' JSON joined by commas, then after. Answers are
// written from stored result JSON this way, and the response types'
// struct tags stay the one spelling of the wire format.
type frame struct{ before, after []byte }

// frameOf encodes resp and cuts the encoding around placeholder, the
// encoding of resp's results.
func frameOf(resp any, placeholder []byte) (frame, error) {
	enc, err := encodeJSON(resp)
	if err != nil {
		return frame{}, err
	}
	before, after, ok := bytes.Cut(enc, placeholder)
	if !ok {
		return frame{}, errors.New("serve: response encoding lacks its results")
	}
	return frame{before, after}, nil
}

// runFrames holds RunResponse's frame for Cached false and true, cut
// around the zero sim.Result.
var runFrames = sync.OnceValues(func() (f [2]frame, err error) {
	zero, err := encodeJSON(sim.Result{})
	if err != nil {
		return f, err
	}
	for i, cached := range []bool{false, true} {
		if f[i], err = frameOf(RunResponse{Cached: cached}, zero); err != nil {
			return f, err
		}
	}
	return f, nil
})

// body is the response for results, newline-terminated as
// json.Encoder writes it.
func (f frame) body(results ...[]byte) []byte {
	n := len(f.before) + len(results) + len(f.after) + 1
	for _, res := range results {
		n += len(res)
	}
	b := append(make([]byte, 0, n), f.before...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, res...)
	}
	b = append(b, f.after...)
	return append(b, '\n')
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Totals:      s.sched.Totals(),
		CachedCells: s.sched.CachedCells(),
		Shed:        s.shed.Load(),
		Workers:     s.sched.Workers(),
		Draining:    s.draining.Load(),
	}
	if s.store != nil {
		resp.DiskCells = s.store.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}

// cellRequest validates a cell's names and settings and builds the
// runner request.
func cellRequest(machine, workload, pol string, seed uint64, mode string, scale float64) (runner.Request, error) {
	req := runner.Request{Machine: machine, Workload: workload, Policy: pol, Seed: seed}
	// Resolution errors are the caller's fault and must answer 400
	// before any simulation is admitted to the pool.
	if err := req.CheckNames(); err != nil {
		return runner.Request{}, err
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if mode != "" || scale != 0 {
		cfg := sim.DefaultConfig()
		if mode != "" {
			m, err := sim.ParseMode(mode)
			if err != nil {
				return runner.Request{}, err
			}
			cfg.Mode = m
		}
		if scale != 0 {
			if scale < 0 {
				return runner.Request{}, fmt.Errorf("serve: negative work_scale %v", scale)
			}
			cfg.WorkScale = scale
		}
		req.Cfg = &cfg
	}
	return req, nil
}

// sweepCells expands a sweep's cross product, machines outermost and
// seeds innermost, refusing empty axes and oversized products.
func sweepCells(req SweepRequest) ([]runner.Request, error) {
	if len(req.Machines) == 0 || len(req.Workloads) == 0 || len(req.Policies) == 0 {
		return nil, errors.New("serve: sweep needs at least one machine, workload and policy")
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	n := len(req.Machines) * len(req.Workloads) * len(req.Policies) * len(seeds)
	if n > maxSweepCells {
		return nil, fmt.Errorf("serve: sweep spans %d cells, limit %d", n, maxSweepCells)
	}
	cells := make([]runner.Request, 0, n)
	for _, m := range req.Machines {
		for _, wl := range req.Workloads {
			for _, p := range req.Policies {
				for _, seed := range seeds {
					cell, err := cellRequest(m, wl, p, seed, req.Mode, req.Scale)
					if err != nil {
						return nil, err
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, nil
}

// decodeBody parses a bounded JSON body, answering 400 on garbage.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// errTrailingData rejects a body with more than whitespace after its
// request object.
var errTrailingData = errors.New("data after the request object")

// decodeRequest parses exactly one JSON request object from r; unknown
// fields and anything but whitespace after the object are errors.
func decodeRequest(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// writeRunError maps a simulation failure to a status: caller mistakes
// (unknown names, bad modes) are 400; a canceled request means the
// client is gone and any answer is moot; everything else is 500.
func writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, runner.ErrUnknownMachine),
		errors.Is(err, workloads.ErrUnknownWorkload),
		errors.Is(err, policy.ErrUnknownPolicy):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		// Client disconnected; the connection is closed, nothing to say.
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client is the only one who'd see this error
}

// encodeJSON returns v as writeJSON's encoder writes it, without the
// trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.Clone(bytes.TrimSuffix(buf.Bytes(), []byte("\n"))), nil
}

// writeBody answers 200 with a frame's body, byte for byte what
// writeJSON would write for the same response.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
