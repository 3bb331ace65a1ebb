package policy

import (
	"math"

	"repro/internal/carrefour"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/thp"
)

// Mechanism is one composable policy component: a page-size manager, a
// placement daemon, a controller, a page-table placement scheme. A
// mechanism wires itself into a run at Install time — extending the
// environment (THP subsystem, page-table pricing) and registering
// periodic hooks on its pipeline — and holds no global state, so any
// subset can be composed into a policy.
type Mechanism interface {
	// Describe names the mechanism for diagnostics and docs.
	Describe() string
	// Install is called once, after the address space exists and before
	// the first access, in the pipeline's declared order.
	Install(env *sim.Env, pl *Pipeline)
}

// hook is one registered periodic callback.
type hook struct {
	name   string
	period float64 // seconds; <= 0 means every epoch
	last   float64
	// due, when non-nil, gates the hook on pending work: a hook whose due
	// reports false neither fires in Tick nor pins NextDaemonDue. The
	// registrar promises that running the hook while due is false would
	// be a pure no-op (zero cycles, no observable state change), which is
	// what makes skipping it byte-identical.
	due func() bool
	fn  func(env *sim.Env, now float64) float64
}

// Pipeline assembles mechanisms into one sim.OS. Mechanisms install in
// declared order and their hooks run in registration order, each gated
// by its declared period; all hooks that consume telemetry share one
// sim.Telemetry view per engine tick, so the IBS buffers are drained
// once and every mechanism sees the same samples and window.
type Pipeline struct {
	name  string
	mechs []Mechanism
	hooks []hook

	tel     sim.Telemetry
	view    sim.View
	viewNow float64
	hasView bool

	// Typed component registry, filled by mechanisms at Install time so
	// tests and diagnostics can reach the live subsystems.
	thpSys  *thp.THP
	car     *carrefour.Carrefour
	lp      *core.LP
	trident *core.Trident

	// needsTel is set by mechanisms that consume the shared telemetry
	// view; without any such consumer the IBS sampler runs passively
	// (exact taken/dropped accounting, no sample storage).
	needsTel bool
}

// NewPipeline assembles a named pipeline from mechanisms.
func NewPipeline(name string, mechs ...Mechanism) *Pipeline {
	return &Pipeline{name: name, mechs: mechs}
}

// Name implements sim.OS.
func (p *Pipeline) Name() string { return p.name }

// Mechanisms lists the composed mechanisms' descriptions, in order.
func (p *Pipeline) Mechanisms() []string {
	out := make([]string, len(p.mechs))
	for i, m := range p.mechs {
		out[i] = m.Describe()
	}
	return out
}

// Setup implements sim.OS: every mechanism installs in declared order.
// If no mechanism declared a telemetry consumer, nothing will ever
// drain the IBS buffers, so the sampler switches to passive accounting
// (identical taken/dropped, no sample storage).
func (p *Pipeline) Setup(env *sim.Env) {
	for _, m := range p.mechs {
		m.Install(env, p)
	}
	if !p.needsTel {
		env.Sampler.SetPassive()
	}
}

// Every registers a periodic hook: fn runs at the end of any epoch where
// at least periodSeconds of simulated time passed since its last run
// (periodSeconds <= 0 runs it every epoch). Hooks run in registration
// order, which is the cross-mechanism execution order within a tick.
func (p *Pipeline) Every(name string, periodSeconds float64, fn func(env *sim.Env, now float64) float64) {
	p.hooks = append(p.hooks, hook{name: name, period: periodSeconds, last: -1e18, fn: fn})
}

// EveryDue registers a periodic hook with a pending-work gate: the hook
// fires only when both its period has elapsed and due() reports true,
// and a gated-off hook does not pin NextDaemonDue. The caller must
// guarantee that fn would be a pure no-op whenever due() is false —
// that invariant is what lets the engine treat a gated-off hook as
// absent. Under sim.Config.Reference, Tick runs gated-off hooks anyway
// (NextDaemonDue still honors the gates), so a gate that hides real work
// surfaces as a byte difference in sim's identity harness.
func (p *Pipeline) EveryDue(name string, periodSeconds float64, due func() bool, fn func(env *sim.Env, now float64) float64) {
	p.hooks = append(p.hooks, hook{name: name, period: periodSeconds, last: -1e18, due: due, fn: fn})
}

// NeedsTelemetry declares that an installed mechanism consumes the
// shared telemetry view (pl.View). Pipelines where no mechanism calls
// this never drain the IBS sampler, so Setup puts it in passive mode.
func (p *Pipeline) NeedsTelemetry() { p.needsTel = true }

// Tick implements sim.OS: due hooks run in registration order and their
// overhead cycles are summed. Reference runs (env.Reference) also run
// hooks whose pending-work gate reports false.
func (p *Pipeline) Tick(env *sim.Env, now float64) float64 {
	var overhead float64
	for i := range p.hooks {
		h := &p.hooks[i]
		if h.period > 0 && now-h.last < h.period {
			continue
		}
		if h.due != nil && !h.due() && !env.Reference() {
			continue
		}
		h.last = now
		overhead += h.fn(env, now)
	}
	return overhead
}

// NextDaemonDue implements sim.DaemonScheduler: a pipeline performs
// daemon work only inside hooks, so the next due time is the earliest
// hook deadline. The due test reuses Tick's exact firing gate
// (now-last >= period) so the engine's quiescence decision and the
// hook's firing decision can never disagree, even at floating-point
// boundary cases. Every-epoch hooks (period <= 0) are always due —
// unless they carry a pending-work gate reporting false, in which case
// the hook is a contractual no-op and does not pin the schedule. That
// gate is how THP-family pipelines (whose khugepaged hook used to pin
// them always-due) prove quiet windows once promotion work drains.
func (p *Pipeline) NextDaemonDue(now float64) float64 {
	next := math.Inf(1)
	for i := range p.hooks {
		h := &p.hooks[i]
		if h.due != nil && !h.due() {
			continue
		}
		if h.period <= 0 || now-h.last >= h.period {
			return now
		}
		if due := h.last + h.period; due < next {
			next = due
		}
	}
	return next
}

// View returns the shared telemetry view for the tick at now, gathering
// it on first use: every hook that consumes telemetry in the same tick
// sees the same counters window and the same drained IBS samples.
func (p *Pipeline) View(env *sim.Env, now float64) sim.View {
	if p.hasView && p.viewNow == now {
		return p.view
	}
	p.view = p.tel.Gather(env)
	p.viewNow = now
	p.hasView = true
	return p.view
}

// THP exposes the installed THP subsystem (nil without a page-size
// mechanism).
func (p *Pipeline) THP() *thp.THP { return p.thpSys }

// Carrefour exposes the placement daemon: the standalone one, or the one
// owned by the LP or Trident controller.
func (p *Pipeline) Carrefour() *carrefour.Carrefour { return p.car }

// LP exposes the Carrefour-LP controller (tests inspect its decisions).
func (p *Pipeline) LP() *core.LP { return p.lp }

// Trident exposes the ladder controller.
func (p *Pipeline) Trident() *core.Trident { return p.trident }
