package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/workloads"
)

// TestResolutionErrorsAreTyped: every name-resolution failure must be
// matchable with errors.Is through whatever wrapping callers add, so
// the serve layer can map "caller sent a bad name" to HTTP 400 without
// string inspection.
func TestResolutionErrorsAreTyped(t *testing.T) {
	if _, err := MachineByName("C"); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("MachineByName = %v, want ErrUnknownMachine", err)
	}
	if _, err := Run(Request{Machine: "X", Workload: "CG.D", Policy: "THP"}); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("Run(bad machine) = %v, want ErrUnknownMachine", err)
	}
	if _, err := Run(Request{Machine: "A", Workload: "nope", Policy: "THP"}); !errors.Is(err, workloads.ErrUnknownWorkload) {
		t.Fatalf("Run(bad workload) = %v, want workloads.ErrUnknownWorkload", err)
	}
	if _, err := Run(Request{Machine: "A", Workload: "CG.D", Policy: "nope"}); !errors.Is(err, policy.ErrUnknownPolicy) {
		t.Fatalf("Run(bad policy) = %v, want policy.ErrUnknownPolicy", err)
	}
}

// TestCheckNamesMatchesNewEngine: CheckNames accepts exactly the names
// NewEngine resolves and fails with NewEngine's error, in its order.
func TestCheckNamesMatchesNewEngine(t *testing.T) {
	for _, m := range []string{"A", "a", "B", "b", "C", "", " A", "AA"} {
		for _, wl := range []string{"EP.C", "nope"} {
			for _, p := range []string{"Linux4K", "nope"} {
				req := Request{Machine: m, Workload: wl, Policy: p, Cfg: quickCfg()}
				_, engErr := NewEngine(req)
				if err := req.CheckNames(); fmt.Sprint(err) != fmt.Sprint(engErr) {
					t.Errorf("%s/%s/%s: CheckNames = %v, NewEngine = %v", m, wl, p, err, engErr)
				}
			}
		}
	}
}

// TestRunContextCancel: an already-canceled context aborts the run
// between epochs with the context's error.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Request{Machine: "A", Workload: "EP.C", Policy: "Linux4K", Seed: 1, Cfg: quickCfg()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext under canceled ctx = %v, want context.Canceled", err)
	}
	// Resolution errors still win over cancellation checks only after
	// validation; a bad name under a canceled context stays typed.
	if _, err := RunContext(ctx, Request{Machine: "C", Workload: "CG.D", Policy: "THP"}); !errors.Is(err, ErrUnknownMachine) {
		t.Fatalf("RunContext(bad machine) = %v, want ErrUnknownMachine", err)
	}
}
