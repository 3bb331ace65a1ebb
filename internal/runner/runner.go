// Package runner drives one simulation: it resolves machine, workload
// and policy names, runs the engine, and computes the relative
// improvements the paper's figures plot. Sweeps run through
// runcache.Scheduler.
package runner

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// ErrUnknownMachine is the resolution failure for Request.Machine.
// Callers distinguish bad requests from engine failures with
// errors.Is — the serve layer maps every resolution sentinel
// (ErrUnknownMachine, workloads.ErrUnknownWorkload,
// policy.ErrUnknownPolicy) to HTTP 400.
var ErrUnknownMachine = errors.New("runner: unknown machine")

// Request names one run.
type Request struct {
	Machine  string // "A" or "B"
	Workload string // paper benchmark name
	Policy   string // see package policy
	Seed     uint64
	// Cfg overrides the engine configuration when non-nil.
	Cfg *sim.Config
}

// machines maps each accepted machine spelling to its constructor.
var machines = map[string]func() *topo.Machine{
	"A": topo.MachineA, "a": topo.MachineA,
	"B": topo.MachineB, "b": topo.MachineB,
}

// MachineByName resolves the paper's machine names.
func MachineByName(name string) (*topo.Machine, error) {
	ctor, ok := machines[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (want A or B)", ErrUnknownMachine, name)
	}
	return ctor(), nil
}

// CheckNames resolves the request's names, in NewEngine's order, without
// building anything: nil, or the error NewEngine would return for them.
func (req Request) CheckNames() error {
	if _, ok := machines[req.Machine]; !ok {
		_, err := MachineByName(req.Machine)
		return err
	}
	if err := workloads.CheckName(req.Workload); err != nil {
		return err
	}
	_, err := policy.SpecByName(req.Policy)
	return err
}

// Run executes one simulation.
func Run(req Request) (sim.Result, error) {
	return RunContext(context.Background(), req)
}

// RunContext executes one simulation, aborting between epochs when ctx
// is canceled (the engine polls the context once per epoch, so
// cancellation latency is one epoch of host time). The returned error is
// ctx.Err() on cancellation or a NewEngine failure.
func RunContext(ctx context.Context, req Request) (sim.Result, error) {
	eng, err := NewEngine(req)
	if err != nil {
		return sim.Result{}, err
	}
	return eng.RunContext(ctx)
}

// NewEngine resolves a request's names and builds its engine, ready to
// run; callers that inspect the engine after the run (per-node
// controller load, per-region placement) build it here too. The error
// is a resolution sentinel (ErrUnknownMachine,
// workloads.ErrUnknownWorkload, policy.ErrUnknownPolicy) wrapped with
// request context on a bad name, or an engine construction failure.
func NewEngine(req Request) (*sim.Engine, error) {
	m, err := MachineByName(req.Machine)
	if err != nil {
		return nil, err
	}
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, err
	}
	pol, err := policy.ByName(req.Policy)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	return sim.New(m, spec, pol, cfg)
}

// ImprovementPct is the paper's performance metric: percent improvement of
// x over the baseline, computed from runtimes (positive = x is faster).
func ImprovementPct(baseline, x sim.Result) float64 {
	if x.RuntimeSeconds <= 0 {
		return 0
	}
	return (baseline.RuntimeSeconds/x.RuntimeSeconds - 1) * 100
}

// Key identifies a result in a sweep map.
type Key struct {
	Machine, Workload, Policy string
}
