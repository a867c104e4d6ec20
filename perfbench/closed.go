package main

import (
	"fmt"
	"runtime"
	"time"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// Closed-loop workloads: one caller runs op after op, each on a fresh
// problem, and waits for each result. The timed part of an op is what a
// library user waits for; its output checks run untimed right after it.

// opFunc runs op i, tracing into tr with op id op under the span root. It
// returns the untimed check, which reports the bytes of result JSON the
// caller decodes.
type opFunc func(i int, tr *Tracer, op, root int) (check func() (int, error), err error)

// closedLoop drives an opFunc over a pool of pre-generated problems.
type closedLoop struct {
	name     string
	shape    shape
	pool     int // problems generated in set-up; ops cycle through them
	problems []*model.Problem
	seeds    []uint64
	op       opFunc
	// probe adds the layer calls no op makes (traced runs only).
	probe func(tr *Tracer, op int) error
}

func (w *closedLoop) setup(seed uint64) error {
	w.seeds = opSeeds(seed, w.pool+1)
	w.problems = make([]*model.Problem, len(w.seeds))
	for i, s := range w.seeds {
		p, err := genProblem(s, w.shape)
		if err != nil {
			return err
		}
		w.problems[i] = p
	}
	// The warm-up op uses the extra last problem and is discarded.
	check, err := w.op(w.pool, nil, -1, -1)
	if err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	if _, err := check(); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	runtime.GC()
	return nil
}

// problem returns op i's problem and seed.
func (w *closedLoop) problem(i int) (*model.Problem, uint64) {
	if i >= w.pool {
		i = w.pool
	} else {
		i %= w.pool
	}
	return w.problems[i], w.seeds[i]
}

func (w *closedLoop) raceInputs(k int) ([]*model.Problem, []uint64, error) {
	k = min(k, len(w.problems))
	return w.problems[:k], w.seeds[:k], nil
}

// measure runs ops until d has passed (at least one op), then the probe.
func (w *closedLoop) measure(d time.Duration, tr *Tracer, opBase int) (*sample, error) {
	s := &sample{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		op := opBase + i
		s.attempted++
		root := tr.Begin("op."+w.name, op, -1)
		t0 := time.Now()
		check, err := w.op(i, tr, op, root)
		lat := time.Since(t0)
		tr.End(root)
		if err != nil {
			s.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		n, err := check()
		if err != nil {
			s.failCheck(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		s.ok(lat, n)
		s.span += lat.Seconds()
		// Start every op from a collected heap, so no op pays for the
		// previous one's garbage and the peak RSS does not depend on where
		// the collector happened to run.
		runtime.GC()
	}
	if tr != nil && w.probe != nil {
		if err := w.probe(tr, opBase+s.attempted); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (w *closedLoop) close() {}

// demoSimulate is nfvsim -demo -simulate as a library user calls it:
// Optimize, Simulate (60 s horizon, 10 s warm-up), then encode the Results
// and decode them again.
func demoSimulate() *closedLoop {
	w := &closedLoop{name: "demo-simulate", shape: demoShape, pool: 32}
	w.op = func(i int, tr *Tracer, op, root int) (func() (int, error), error) {
		p, seed := w.problem(i)
		sol, err := optimize(tr, op, root, p, seed)
		if err != nil {
			return nil, err
		}
		res, err := simulateSolution(tr, op, root, sol, core.SimulationConfig{Horizon: 60, Warmup: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		var data []byte
		if err := timed(tr, "simulate.encode", op, root, func() (err error) {
			data, err = encodeResults(res)
			return err
		}); err != nil {
			return nil, err
		}
		tr.Count("simulate.result_bytes", float64(len(data)))
		var decoded *simulate.Results
		if err := timed(tr, "simulate.decode", op, root, func() (err error) {
			decoded, err = decodeResults(data)
			return err
		}); err != nil {
			return nil, err
		}
		return func() (int, error) {
			if err := checkLedger(res); err != nil {
				return 0, err
			}
			if err := checkResultsDoc(decoded, data); err != nil {
				return 0, err
			}
			if _, err := solutionRoundTrip(tr, op, sol); err != nil {
				return 0, err
			}
			return len(data), nil
		}, nil
	}
	w.probe = func(tr *Tracer, op int) error {
		p, seed := w.problem(0)
		sol, err := optimize(tr, op, -1, p, seed)
		if err != nil {
			return err
		}
		return evaluate(tr, op, -1, sol)
	}
	return w
}

// clusterSimulate is the multi-datacenter path: OptimizeCluster, then
// SimulateCluster with the default (sequential) driver.
func clusterSimulate() *closedLoop {
	w := &closedLoop{name: "cluster-simulate", shape: demoShape, pool: 64}
	w.op = func(i int, tr *Tracer, op, root int) (func() (int, error), error) {
		p, seed := w.problem(i)
		var cs *core.ClusterSolution
		if err := timed(tr, "cluster.optimize", op, root, func() (err error) {
			cs, err = core.OptimizeCluster(p, clusterOptions(seed))
			return err
		}); err != nil {
			return nil, err
		}
		var res *cluster.Results
		if err := timed(tr, "cluster.run.w0", op, root, func() (err error) {
			res, err = core.SimulateCluster(cs, clusterSimConfig(seed, 0))
			return err
		}); err != nil {
			return nil, err
		}
		tr.Count("cluster.wan_hops", float64(res.WANHops))
		tr.Count("cluster.truncated", float64(res.Truncated))
		return func() (int, error) {
			if err := checkClusterLedger(res); err != nil {
				return 0, err
			}
			total := 0
			for d, sol := range cs.Regions {
				if err := checkSolution(sol); err != nil {
					return 0, fmt.Errorf("%s: %w", cs.Names[d], err)
				}
			}
			for _, dc := range res.Datacenters {
				data, err := encodeResults(dc.Results)
				if err != nil {
					return 0, err
				}
				decoded, err := decodeResults(data)
				if err != nil {
					return 0, err
				}
				if err := checkResultsDoc(decoded, data); err != nil {
					return 0, fmt.Errorf("%s: %w", dc.Name, err)
				}
				total += len(data)
			}
			return total, nil
		}, nil
	}
	// The probe sizes the window drivers and the cost of the composition:
	// the same cluster under Workers 1 and 2, and each region alone.
	w.probe = func(tr *Tracer, op int) error {
		p, seed := w.problem(0)
		cs, err := core.OptimizeCluster(p, clusterOptions(seed))
		if err != nil {
			return err
		}
		for _, workers := range []int{1, 2} {
			var res *cluster.Results
			if err := timed(tr, fmt.Sprintf("cluster.run.w%d", workers), op, -1, func() (err error) {
				res, err = core.SimulateCluster(cs, clusterSimConfig(seed, workers))
				return err
			}); err != nil {
				return err
			}
			if err := checkClusterLedger(res); err != nil {
				return err
			}
		}
		return timed(tr, "cluster.region_sim", op, -1, func() error {
			for d, sol := range cs.Regions {
				res, err := core.Simulate(sol, clusterSimConfig(seed, 0).Sim)
				if err != nil {
					return fmt.Errorf("%s: %w", cs.Names[d], err)
				}
				if err := checkLedger(res); err != nil {
					return fmt.Errorf("%s: %w", cs.Names[d], err)
				}
			}
			return nil
		})
	}
	return w
}

// anytimeRace is core.SolveRace with the default portfolio at its default
// iteration budgets on a fixed number of workers.
func anytimeRace() *closedLoop {
	w := &closedLoop{name: "anytime-race", shape: demoShape, pool: 256}
	w.op = func(i int, tr *Tracer, op, root int) (func() (int, error), error) {
		p, seed := w.problem(i)
		var sol *core.Solution
		if err := timed(tr, "core.solve_race", op, root, func() (err error) {
			sol, _, err = race(p, seed, raceWorkers)
			return err
		}); err != nil {
			return nil, err
		}
		return func() (int, error) { return solutionRoundTrip(tr, op, sol) }, nil
	}
	w.probe = func(tr *Tracer, op int) error {
		problems, seeds, err := w.raceInputs(soloProblems)
		if err != nil {
			return err
		}
		return soloSolvers(tr, op, -1, problems, seeds)
	}
	return w
}

// soloProblems bounds the problems a solver tries alone before a traced
// run gives up on it.
const soloProblems = 16

// solutionRoundTrip checks a solution, encodes it, decodes it and verifies
// the exact round trip, tracing the encode and decode. It returns the
// document's size.
func solutionRoundTrip(tr *Tracer, op int, sol *core.Solution) (int, error) {
	if err := checkSolution(sol); err != nil {
		return 0, err
	}
	var data []byte
	if err := timed(tr, "core.solution_encode", op, -1, func() (err error) {
		data, err = encodeSolution(sol)
		return err
	}); err != nil {
		return 0, err
	}
	tr.Count("core.solution_bytes", float64(len(data)))
	var decoded *core.Solution
	if err := timed(tr, "core.solution_decode", op, -1, func() (err error) {
		decoded, err = decodeSolution(data)
		return err
	}); err != nil {
		return 0, err
	}
	if err := checkSolutionDoc(decoded, data); err != nil {
		return 0, err
	}
	return len(data), nil
}
