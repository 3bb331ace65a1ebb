package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed step recorded by the benchmark around a call into a
// layer: the workload's phases ("cold", "hit") and, under them, each
// cell submitted to the Scheduler or request sent to the daemon. Every
// cell or request span is its own request and carries a fresh request
// id; phase spans have request id 0.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	Request int64          `json:"request"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
	nextRq int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (the zero span when tracing is off).
// Spans named "cell" or "request" start a new request.
func (t *tracer) begin(parent int64, name string) span {
	if t == nil {
		return span{}
	}
	sp := span{Parent: parent, Name: name, StartUS: us(time.Since(t.origin))}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp.ID = t.nextID
	if name == "cell" || name == "request" {
		t.nextRq++
		sp.Request = t.nextRq
	}
	return sp
}

// end closes sp with its attributes and keeps it.
func (t *tracer) end(sp span, attrs map[string]any) {
	if t == nil {
		return
	}
	sp.EndUS = us(time.Since(t.origin))
	sp.Attrs = attrs
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sp)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as JSON lines, in the order they ended.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
