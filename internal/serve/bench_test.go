package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hitSweep names 16 cheap cells (EP.C at 2% scale on machine A), the
// shape of a cached sweep batch.
func hitSweep() SweepRequest {
	return SweepRequest{
		Machines:  []string{"A"},
		Workloads: []string{"EP.C"},
		Policies:  []string{"Linux4K", "THP"},
		Seeds:     []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Scale:     0.02,
	}
}

// serveBody posts body to path through h and fails unless it answers
// 200.
func serveBody(tb testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s %s answered %d: %s", path, body, rec.Code, rec.Body)
	}
	return rec
}

// benchHits times a cached request through the daemon's handler: the
// first call simulates, every timed call is a cache hit.
func benchHits(b *testing.B, path string, req any) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	body := string(data)
	h := s.Handler()
	serveBody(b, h, path, body)
	runs := s.Scheduler().Totals().Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBody(b, h, path, body)
	}
	b.StopTimer()
	if got := s.Scheduler().Totals().Runs; got != runs {
		b.Fatalf("timed requests simulated %d cells", got-runs)
	}
}

// BenchmarkServeRunHit is one cached /v1/run request.
func BenchmarkServeRunHit(b *testing.B) { benchHits(b, "/v1/run", fastRun(1)) }

// BenchmarkServeSweepHit is one /v1/sweep request over 16 cached cells.
func BenchmarkServeSweepHit(b *testing.B) { benchHits(b, "/v1/sweep", hitSweep()) }
