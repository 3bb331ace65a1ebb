package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/runcache"
	"repro/internal/runner"
)

// FuzzServeRequest is the daemon's trust boundary: any body posted to
// /v1/run or /v1/sweep (route picks which) is answered with a 2xx or a
// 4xx, never a 5xx or a panic. The harness pre-warms a few tiny cells
// and skips bodies that would simulate a cell it did not warm, so every
// execution is a cache answer or a refusal and stays sub-millisecond;
// it fails if a body it kept simulated anything.
func FuzzServeRequest(f *testing.F) {
	run := `{"machine":"A","workload":"EP.C","policy":"Linux4K","work_scale":0.02}`
	sweep := `{"machines":["A","a"],"workloads":["EP.C"],"policies":["Linux4K","THP"],"seeds":[1,2],"work_scale":0.02}`
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, run + ` trailing-garbage`},
		{0, run + `{"machine":"B"}`},
		{1, sweep + ` trailing-garbage`},
		{1, sweep + `{"machine":"B"}`},
		{0, run},
		{0, `{"machine":"a","workload":"EP.C","policy":"THP","seed":2,"mode":"analytic","work_scale":2e-2}`},
		{0, `{"machine":"A","workload":"EP.C","policy":"Linux4K","work_scale":-1}`},
		{0, `{"machine":7}`},
		{0, `{"machine":"A","workload":"nope","policy":"THP"}`},
		{1, sweep},
		{1, `{"machines":[],"workloads":["EP.C"],"policies":["THP"]}`},
		{0, ``},
		{1, `null`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}

	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	for _, mode := range []string{"", "analytic"} {
		for _, pol := range []string{"Linux4K", "THP"} {
			for _, seed := range []uint64{1, 2} {
				data, _ := json.Marshal(RunRequest{Machine: "A", Workload: "EP.C", Policy: pol, Seed: seed, Mode: mode, Scale: 0.02})
				serveBody(f, h, "/v1/run", string(data))
			}
		}
	}
	warm := map[runcache.Key]bool{}
	for _, k := range s.Scheduler().CompletedKeys() {
		warm[k] = true
	}
	runs := s.Scheduler().Totals().Runs

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := "/v1/run"
		if route%2 == 1 {
			path = "/v1/sweep"
		}
		if simulates(path, body, warm) {
			t.Skip("the body names a cell that is not warm")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("%s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
		if got := s.Scheduler().Totals().Runs; got != runs {
			t.Fatalf("%s %q simulated %d cells", path, body, got-runs)
		}
	})
}

// simulates reports whether the handler would run a simulation for
// body: it decodes and expands the request the way the handler does,
// and a request the handler refuses simulates nothing.
func simulates(path string, body []byte, warm map[runcache.Key]bool) bool {
	var cells []runner.Request
	if path == "/v1/run" {
		var req RunRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return false
		}
		cell, err := cellRequest(req.Machine, req.Workload, req.Policy, req.Seed, req.Mode, req.Scale)
		if err != nil {
			return false
		}
		cells = append(cells, cell)
	} else {
		var req SweepRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return false
		}
		var err error
		if cells, err = sweepCells(req); err != nil {
			return false
		}
	}
	for _, c := range cells {
		if !warm[runcache.KeyOf(c)] {
			return true
		}
	}
	return false
}
