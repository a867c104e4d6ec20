package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Calls into the program's layers. Untraced (tr == nil) they are the plain
// public entry points a user calls; traced, the composite calls are split
// into their public per-layer calls so each gets a span. The split calls
// produce the same outputs (perfbench_test.go pins this).

// linkDelay is the per-hop latency L of Eq. 16, as in nfvsim -demo.
const linkDelay = 0.001

// optimize runs core.Optimize, or traced, BFDSU placement, RCKK scheduling
// and admission control one by one.
func optimize(tr *Tracer, op, parent int, p *model.Problem, seed uint64) (*core.Solution, error) {
	if tr == nil {
		return core.Optimize(p, core.Options{Seed: seed, LinkDelay: linkDelay})
	}
	id := tr.Begin("placement.bfdsu", op, parent)
	placed, err := (&placement.BFDSU{Seed: seed}).Place(p)
	tr.End(id)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	tr.Count("placement.iterations", float64(placed.Iterations))
	id = tr.Begin("scheduling.rckk", op, parent)
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	tr.End(id)
	if err != nil {
		return nil, fmt.Errorf("scheduling: %w", err)
	}
	id = tr.Begin("scheduling.admission", op, parent)
	adm, err := scheduling.ApplyAdmissionControl(p, sched)
	tr.End(id)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	tr.Count("scheduling.rejected", float64(len(adm.Rejected)))
	return &core.Solution{
		Problem:             p,
		Placement:           placed.Placement,
		PlacementIterations: placed.Iterations,
		Schedule:            adm.Admitted,
		Rejected:            adm.Rejected,
		RejectionRate:       adm.RejectionRate,
		LinkDelay:           linkDelay,
	}, nil
}

// evaluate times core.Evaluate. It is a probe of the traced run only: no
// op calls it.
func evaluate(tr *Tracer, op, parent int, sol *core.Solution) error {
	id := tr.Begin("core.evaluate", op, parent)
	_, err := core.Evaluate(sol)
	tr.End(id)
	return err
}

// simulateSolution runs core.Simulate, or traced, Simulator.Reset and
// Simulator.Run with the config core.Simulate builds.
func simulateSolution(tr *Tracer, op, parent int, sol *core.Solution, cfg core.SimulationConfig) (*simulate.Results, error) {
	if tr == nil {
		return core.Simulate(sol, cfg)
	}
	sim := simulate.NewSimulator()
	id := tr.Begin("simulate.reset", op, parent)
	err := sim.Reset(simulate.Config{
		Problem:   sol.Problem,
		Schedule:  sol.Schedule,
		Placement: sol.Placement,
		LinkDelay: sol.LinkDelay,
		Horizon:   cfg.Horizon,
		Warmup:    cfg.Warmup,
		Seed:      cfg.Seed,
	})
	tr.End(id)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	id = tr.Begin("simulate.run", op, parent)
	res, err := sim.Run()
	tr.End(id)
	if err != nil {
		return nil, err
	}
	tr.Count("simulate.pkts_per_s", float64(res.Generated)/time.Since(start).Seconds())
	tr.Count("simulate.generated", float64(res.Generated))
	tr.Count("simulate.delivered", float64(res.Delivered))
	tr.Count("simulate.samples", float64(len(res.LatencySamples)))
	return res, nil
}

// timed runs f inside a span and returns its error.
func timed(tr *Tracer, name string, op, parent int, f func() error) error {
	id := tr.Begin(name, op, parent)
	defer tr.End(id)
	return f()
}

// The cluster-simulate setup: the demo problem split over 4
// datacenters with 25% global flows, least-loaded routing and a 5 ms WAN
// hop.
const (
	clusterDatacenters = 4
	clusterGlobal      = 0.25
	clusterWAN         = 0.005
	clusterHorizon     = 20.0
	clusterWarmup      = 5.0
)

func clusterOptions(seed uint64) core.ClusterOptions {
	return core.ClusterOptions{
		Datacenters:    clusterDatacenters,
		GlobalFraction: clusterGlobal,
		Options:        core.Options{Seed: seed, LinkDelay: linkDelay},
	}
}

// clusterSimConfig is the cluster run at the given driver setting (0, the
// default, is the sequential driver).
func clusterSimConfig(seed uint64, workers int) core.ClusterSimConfig {
	return core.ClusterSimConfig{
		Sim:        core.SimulationConfig{Horizon: clusterHorizon, Warmup: clusterWarmup, Seed: seed},
		WANLatency: clusterWAN,
		Router:     cluster.LeastLoaded{},
		Seed:       seed,
		Workers:    workers,
	}
}

// raceWorkers is the fixed solver-level parallelism of anytime-race.
const raceWorkers = 1

// race runs core.SolveRace with the default portfolio at its default
// iteration budgets on the given number of workers. With iteration budgets
// and no deadline the winner does not depend on the worker count.
func race(p *model.Problem, seed uint64, workers int) (*core.Solution, *portfolio.RaceResult, error) {
	return core.SolveRace(context.Background(), p, core.RaceOptions{
		Workers: workers, Seed: seed, LinkDelay: linkDelay,
	})
}

// soloSolvers times each default-portfolio solver alone (Spec.Build, then
// Solve), the way the race runs them, on the first of the problems it
// solves. As in the race, a solver that finds no feasible placement (nah on
// a tight fleet) has an outcome, not a failure: the attempt is traced as
// portfolio.<solver>.infeasible and the solver moves on to the next problem.
func soloSolvers(tr *Tracer, op, parent int, problems []*model.Problem, seeds []uint64) error {
	obj := portfolio.DefaultObjective()
	obj.LinkDelay = linkDelay
	for i, text := range portfolio.DefaultPortfolio() {
		spec, err := portfolio.ParseSpec(text)
		if err != nil {
			return err
		}
		solved := false
		for k, p := range problems {
			sv, err := spec.Build(obj, seeds[k]+uint64(i))
			if err != nil {
				return err
			}
			start := time.Now()
			sol, err := sv.Solve(context.Background(), p, nil)
			end := time.Now()
			if errors.Is(err, placement.ErrInfeasible) {
				tr.Add("portfolio."+spec.Name+".infeasible", op, parent, start, end)
				fmt.Fprintf(os.Stderr, "perfbench: portfolio %s alone: problem %d infeasible (%v); trying the next\n", spec.Name, k, err)
				continue
			}
			if err != nil {
				return fmt.Errorf("portfolio %s: %w", spec.Name, err)
			}
			tr.Add("portfolio."+spec.Name, op, parent, start, end)
			tr.Count("portfolio."+spec.Name+".iters_per_s", float64(sol.Iterations)/end.Sub(start).Seconds())
			solved = true
			break
		}
		if !solved {
			return fmt.Errorf("portfolio %s: no feasible placement on any of %d problems", spec.Name, len(problems))
		}
	}
	return nil
}
