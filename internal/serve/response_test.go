package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/runcache"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// encoderBody is v as the daemon's JSON encoder writes it.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw posts body and returns the status, the raw response body and
// the declared Content-Length.
func postRaw(t *testing.T, url, body string) (int, []byte, int64) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.ContentLength
}

// TestResponsesMatchEncoder: the frame-written /v1/run and /v1/sweep
// bodies are byte for byte the json.Encoder output of RunResponse and
// SweepResponse, for a miss, a hit (through a differently spelled
// machine with the same content address) and a sweep that mixes cached,
// fresh and repeated cells, each with a matching Content-Length.
func TestResponsesMatchEncoder(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	check := func(name string, status int, body []byte, length int64, expect []byte) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		if !bytes.Equal(body, expect) {
			t.Fatalf("%s: body differs from the encoder's\n got %s\nwant %s", name, body, expect)
		}
		if length != int64(len(body)) {
			t.Fatalf("%s: Content-Length %d for a %d-byte body", name, length, len(body))
		}
	}
	// The expected bodies encode what the scheduler, which now holds
	// every cell, answers for them: exactly what the handler wrote from.
	results := func(reqs ...RunRequest) []runner.Request {
		t.Helper()
		out := make([]runner.Request, len(reqs))
		for i, c := range reqs {
			var err error
			if out[i], err = cellRequest(c.Machine, c.Workload, c.Policy, c.Seed, c.Mode, c.Scale); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	miss := fastRun(1)
	data, _ := json.Marshal(miss)
	status, body, length := postRaw(t, ts.URL+"/v1/run", string(data))
	res, _, err := s.Scheduler().Results(results(miss))
	if err != nil {
		t.Fatal(err)
	}
	check("miss", status, body, length, encoderBody(t, RunResponse{Result: res[0], Cached: false}))

	hit := miss
	hit.Machine = "a"
	if runcache.KeyOf(results(hit)[0]) != runcache.KeyOf(results(miss)[0]) {
		t.Fatal("machine spellings a and A have different content addresses")
	}
	data, _ = json.Marshal(hit)
	status, body, length = postRaw(t, ts.URL+"/v1/run", string(data))
	res, _, err = s.Scheduler().Results(results(hit))
	if err != nil {
		t.Fatal(err)
	}
	check("hit", status, body, length, encoderBody(t, RunResponse{Result: res[0], Cached: true}))

	// Six cells, four unique; A/EP.C/Linux4K seed 1 is already cached.
	sweep := SweepRequest{
		Machines:  []string{"A"},
		Workloads: []string{"EP.C"},
		Policies:  []string{"Linux4K", "THP"},
		Seeds:     []uint64{1, 2, 1},
		Scale:     0.02,
	}
	data, _ = json.Marshal(sweep)
	status, body, length = postRaw(t, ts.URL+"/v1/sweep", string(data))
	cells, err := sweepCells(sweep)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = s.Scheduler().Results(cells)
	if err != nil {
		t.Fatal(err)
	}
	stats := runcache.Stats{Requested: 6, Unique: 4, Hits: 1, Runs: 3}
	check("mixed sweep", status, body, length, encoderBody(t, SweepResponse{Results: res, Stats: stats}))
	if n := encodedLen(s); n != 4 {
		t.Fatalf("server holds %d encoded results after 4 distinct cells", n)
	}
}

// TestTrailingDataAnswers400: a body is exactly one request object,
// optionally followed by whitespace.
func TestTrailingDataAnswers400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	run := `{"machine":"A","workload":"EP.C","policy":"Linux4K","work_scale":0.02}`
	sweep := `{"machines":["A"],"workloads":["EP.C"],"policies":["Linux4K"],"work_scale":0.02}`
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"run", "/v1/run", run, http.StatusOK},
		{"run trailing whitespace", "/v1/run", run + " \n\t\r\n", http.StatusOK},
		{"run trailing garbage", "/v1/run", run + " trailing-garbage", http.StatusBadRequest},
		{"run second object", "/v1/run", run + `{"machine":"B"}`, http.StatusBadRequest},
		{"run trailing bracket", "/v1/run", run + `]`, http.StatusBadRequest},
		{"run trailing number", "/v1/run", run + ` 1`, http.StatusBadRequest},
		{"sweep", "/v1/sweep", sweep, http.StatusOK},
		{"sweep trailing whitespace", "/v1/sweep", sweep + "\n", http.StatusOK},
		{"sweep trailing garbage", "/v1/sweep", sweep + " trailing-garbage", http.StatusBadRequest},
		{"sweep second object", "/v1/sweep", sweep + `{"machine":"B"}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postRaw(t, ts.URL+tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("answered %d, want %d: %s", status, tc.want, body)
			}
			if status == http.StatusBadRequest && !bytes.Contains(body, []byte("bad request body")) {
				t.Fatalf("400 body %s does not say bad request body", body)
			}
		})
	}
}

// TestCellRequestNameErrors: a bad name answers with its own
// package's error message and sentinel.
func TestCellRequestNameErrors(t *testing.T) {
	for _, tc := range []struct {
		machine, workload, pol string
		sentinel               error
		msg                    string
	}{
		{"Z", "EP.C", "THP", runner.ErrUnknownMachine, `runner: unknown machine "Z" (want A or B)`},
		{"A", "nope", "THP", workloads.ErrUnknownWorkload, `workloads: unknown benchmark "nope"`},
		{"b", "EP.C", "nope", policy.ErrUnknownPolicy, `policy: unknown policy "nope"`},
	} {
		_, err := cellRequest(tc.machine, tc.workload, tc.pol, 0, "", 0)
		if !errors.Is(err, tc.sentinel) || err.Error() != tc.msg {
			t.Errorf("cellRequest(%s, %s, %s) = %v, want %q", tc.machine, tc.workload, tc.pol, err, tc.msg)
		}
	}
	if _, err := cellRequest("A", "EP.C", "THP", 0, "", 0); err != nil {
		t.Errorf("valid cell refused: %v", err)
	}
}

// encodedLen reports how many cells the server holds encoded results
// for.
func encodedLen(s *Server) int {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	return len(s.encoded)
}
