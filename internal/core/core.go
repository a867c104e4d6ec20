// Package core implements the paper's joint optimization pipeline: phase
// one places VNF chains on computing nodes (Section IV-A, default BFDSU),
// phase two schedules requests onto service instances (Section IV-B, default
// RCKK), with admission control enforcing per-instance stability. It also
// evaluates solutions analytically — Objective 1 (Eq. 13/14), Objective 2
// (Eq. 15) and the combined total latency (Eq. 16) — and bridges to the
// discrete-event simulator for empirical validation.
package core

import (
	"context"
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Options configures the pipeline. Zero values select the paper's proposed
// algorithms.
type Options struct {
	// Placer is the phase-one algorithm; nil means BFDSU with Seed.
	Placer placement.Algorithm
	// Scheduler is the phase-two algorithm; nil means RCKK.
	Scheduler scheduling.Partitioner
	// LinkDelay is the constant per-hop latency L of Eq. 16.
	LinkDelay float64
	// DisableAdmissionControl keeps overloaded assignments instead of
	// rejecting requests; Evaluate will then fail on unstable instances.
	DisableAdmissionControl bool
	// Seed drives the default BFDSU placer.
	Seed uint64
}

// Solution is the output of the two-phase pipeline.
type Solution struct {
	Problem   *model.Problem
	Placement *model.Placement
	// PlacementIterations is the Fig. 10 execution-cost counter.
	PlacementIterations int
	// Schedule has admission control already applied (unless disabled).
	Schedule *model.Schedule
	// Rejected lists requests dropped by admission control.
	Rejected []model.RequestID
	// RejectionRate is the paper's job rejection rate (Figs. 15–16).
	RejectionRate float64
	// LinkDelay echoes the L used for Eq. 16 evaluation.
	LinkDelay float64
}

// Optimize runs placement then scheduling on the problem.
func Optimize(p *model.Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	placer := opts.Placer
	if placer == nil {
		placer = &placement.BFDSU{Seed: opts.Seed}
	}
	scheduler := opts.Scheduler
	if scheduler == nil {
		scheduler = scheduling.RCKK{}
	}

	placed, err := placer.Place(p)
	if err != nil {
		return nil, fmt.Errorf("core: placement (%s): %w", placer.Name(), err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduler)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling (%s): %w", scheduler.Name(), err)
	}

	sol := &Solution{
		Problem:             p,
		Placement:           placed.Placement,
		PlacementIterations: placed.Iterations,
		Schedule:            sched,
		LinkDelay:           opts.LinkDelay,
	}
	if !opts.DisableAdmissionControl {
		adm, err := scheduling.ApplyAdmissionControl(p, sched)
		if err != nil {
			return nil, fmt.Errorf("core: admission control: %w", err)
		}
		sol.Schedule = adm.Admitted
		sol.Rejected = adm.Rejected
		sol.RejectionRate = adm.RejectionRate
	}
	return sol, nil
}

// SimulationConfig carries the simulator knobs not already fixed by the
// solution.
type SimulationConfig struct {
	Horizon    float64
	Warmup     float64
	BufferSize int
	// DropPolicy selects the fate of packets meeting a full buffer (zero
	// value = DropDiscard, the historical silent-loss semantics);
	// DropRetransmit re-injects them from the source after RetransmitDelay.
	DropPolicy      simulate.DropPolicy
	RetransmitDelay float64
	// TraceStream replays recorded arrivals from a forward-only cursor in
	// constant memory: a workload.TraceStream over a CSV, or an in-memory
	// workload.Trace through its Cursor. Mutually exclusive with Sources.
	TraceStream simulate.TraceSource
	// Sources overrides individual requests' arrival processes with
	// pull-based generators (e.g. workload.BuildSources client classes);
	// absent requests keep the flat-Poisson default. Mutually exclusive
	// with TraceStream.
	Sources map[model.RequestID]simulate.ArrivalSource
	// KeepSamples also records every post-warmup latency in
	// Results.LatencySamples (O(delivered) memory); by default only the
	// fixed-size Results.LatencySketch carries the latency quantiles.
	KeepSamples bool
	// ServiceDist selects the service-time distribution (zero value =
	// exponential, the paper's assumption).
	ServiceDist simulate.ServiceDist
	Seed        uint64

	// FaultPlan injects node failures; nil (the zero value) disables fault
	// injection and keeps runs bit-identical to historical ones.
	FaultPlan *simulate.FaultPlan
	// FailurePolicy selects the fate of packets caught at failed instances
	// (zero value FailDrop). Ignored without a FaultPlan.
	FailurePolicy simulate.FailurePolicy
	// FaultHook observes node transitions and may repair the run mid-
	// flight (e.g. a repair.Controller). Ignored without a FaultPlan.
	FaultHook simulate.FaultHook

	// Control attaches a periodic control plane (e.g. a control.Controller):
	// it ticks every ControlInterval simulated seconds and may autoscale,
	// migrate and shed. nil (the zero value) keeps runs bit-identical to
	// historical ones; ControlInterval must be positive and finite when set.
	Control         simulate.ControlHook
	ControlInterval float64
}

// Simulate runs the discrete-event simulator on a solution, wiring in its
// placement, post-admission schedule and link delay.
func Simulate(sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	return SimulateContext(context.Background(), sol, cfg)
}

// SimulateContext is Simulate with cancellation: the event loop polls ctx
// every simulate.CtxCheckInterval events and aborts with ctx.Err() when it
// fires. With a background context it is bit-identical to Simulate.
func SimulateContext(ctx context.Context, sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	return simulate.RunContext(ctx, simConfig(sol, cfg))
}

// SimulateWith runs the simulation on a caller-provided reusable Simulator,
// amortizing run-state allocation across runs (the serving daemon's worker
// pool path). The returned Results aliases the simulator's buffers and is
// only valid until its next Reset; outputs are bit-identical to Simulate
// under the same config and seed.
func SimulateWith(ctx context.Context, sim *simulate.Simulator, sol *Solution, cfg SimulationConfig) (*simulate.Results, error) {
	if err := sim.Reset(simConfig(sol, cfg)); err != nil {
		return nil, err
	}
	return sim.RunContext(ctx)
}

// simConfig wires a solution and the remaining knobs into the simulator's
// config.
func simConfig(sol *Solution, cfg SimulationConfig) simulate.Config {
	return simulate.Config{
		Problem:         sol.Problem,
		Schedule:        sol.Schedule,
		Placement:       sol.Placement,
		LinkDelay:       sol.LinkDelay,
		Horizon:         cfg.Horizon,
		Warmup:          cfg.Warmup,
		BufferSize:      cfg.BufferSize,
		DropPolicy:      cfg.DropPolicy,
		RetransmitDelay: cfg.RetransmitDelay,
		TraceStream:     cfg.TraceStream,
		Sources:         cfg.Sources,
		KeepSamples:     cfg.KeepSamples,
		ServiceDist:     cfg.ServiceDist,
		Seed:            cfg.Seed,
		FaultPlan:       cfg.FaultPlan,
		FailurePolicy:   cfg.FailurePolicy,
		FaultHook:       cfg.FaultHook,
		Control:         cfg.Control,
		ControlInterval: cfg.ControlInterval,
	}
}
