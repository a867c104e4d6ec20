// Command perfbench is the repository's benchmark. It times the paths a
// user of nfvchain waits on — nfvsim -demo -simulate as a library call, the
// multi-datacenter simulation, an anytime portfolio race, and nfvd under an
// open-loop job mix — checks every output, and prints every metric by name
// and unit. See README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload demo-simulate --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 0 the metrics are the end-to-end ones, from untraced runs;
// with --trace 1 they are the per-layer ones, from a traced run whose spans
// are also written under .bench_build/traces/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nfvchain/internal/model"
)

// heldOutSeed is never used while tuning the benchmark or a change; re-run
// a claim on it before accepting it.
const heldOutSeed = 20171

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// raceObjectiveProblems is the number of problems race_objective averages;
// the objective differs by whole nodes between problems, so fewer make the
// mean swing with the seed.
const raceObjectiveProblems = 32

// objectiveWorkers runs the untimed race_objective races on both CPUs.
const objectiveWorkers = 2

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup generates the run's inputs from the seed, starts what the ops
	// need and runs one discarded warm-up op.
	setup(seed uint64) error
	// measure runs ops for about d (at least one), tracing into tr when it
	// is non-nil; op ids start at opBase.
	measure(d time.Duration, tr *Tracer, opBase int) (*sample, error)
	// raceInputs returns up to k of the run's problems and their seeds.
	raceInputs(k int) ([]*model.Problem, []uint64, error)
	// close stops whatever setup started and waits for it.
	close()
}

// workloadNames lists the workloads. serve-mix is not in BENCHMARK.json:
// its tail latency is too unsteady on a 2-CPU host to gate on (README.md),
// but it runs by name, and every traced run probes it for the service
// layer's metrics.
var workloadNames = []string{"demo-simulate", "cluster-simulate", "serve-mix", "anytime-race"}

func newWorkload(name string, d time.Duration) (benchWorkload, error) {
	switch name {
	case "demo-simulate":
		return demoSimulate(), nil
	case "cluster-simulate":
		return clusterSimulate(), nil
	case "serve-mix":
		return newServeMix(d), nil
	case "anytime-race":
		return anytimeRace(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", 1, fmt.Sprintf("workload seed (hold out %d for re-checking claims)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds %v: want > 0", *seconds)
	}
	if _, err := newWorkload(*name, 0); err != nil {
		return err
	}
	d := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d (held-out seed %d), %v, trace %d, serve-mix latency limit %v, poll interval %v, serve workers %d, race workers %d\n",
		*name, *seed, heldOutSeed, d, *trace, serveLatencyLimit, pollInterval, serveWorkers, raceWorkers)

	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(*name, *seed, d)
	} else {
		res, err = runTraced(*name, *seed, d, filepath.Join(*traceDir, fmt.Sprintf("%s-%d.json", *name, *seed)))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runEndToEnd sets up setupRepeats times, measures once with tracing off,
// and reports the end-to-end metrics.
func runEndToEnd(name string, seed uint64, d time.Duration) (*result, error) {
	var w benchWorkload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w, _ = newWorkload(name, d)
		start := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	s, err := w.measure(d, nil, 0)
	w.close()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	obj, err := raceObjective(w, s, raceWinner)
	if err != nil {
		return nil, err
	}
	if s.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", s.failed, s.attempted, s.firstErr)
	}
	if len(s.latMs) == 0 || s.span <= 0 {
		return nil, errors.New("no op succeeded")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops timed, %d attempted, %d failed\n", len(s.latMs), s.attempted, s.failed)
	return &result{
		Correct:   s.badChecks == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"op_p50_ms":      {median(s.latMs), "ms"},
			"op_p99_ms":      {tailLatency(s.latMs), "ms"},
			"goodput_ops_s":  {float64(s.good) / s.span, "ops/s"},
			"result_bytes":   {mean(s.bytes), "B"},
			"peak_rss_mb":    {rss, "MB"},
			"race_objective": {obj, "objective"},
		},
	}, nil
}

// raceWinner returns the winner's objective of the default race.
func raceWinner(p *model.Problem, seed uint64) (float64, error) {
	_, res, err := race(p, seed, objectiveWorkers)
	if err != nil {
		return 0, err
	}
	return res.Best.Objective, nil
}

// raceObjective races the run's first raceObjectiveProblems problems twice
// each, counts a differing repeat as a failed op, and returns the mean
// winner objective.
func raceObjective(w benchWorkload, s *sample, winner func(*model.Problem, uint64) (float64, error)) (float64, error) {
	problems, seeds, err := w.raceInputs(raceObjectiveProblems)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, p := range problems {
		s.attempted++
		first, err := winner(p, seeds[i])
		if err != nil {
			return 0, fmt.Errorf("race objective: %w", err)
		}
		again, err := winner(p, seeds[i])
		if err != nil {
			return 0, fmt.Errorf("race objective: %w", err)
		}
		if first != again {
			s.failCheck(fmt.Errorf("race objective: problem %d: repeat gave %v, first run %v", i, again, first))
		}
		sum += first
	}
	if len(problems) == 0 {
		return 0, errors.New("race objective: no problems")
	}
	return sum / float64(len(problems)), nil
}

// runTraced measures the workload untraced for half of d and traced for the
// other half, then runs one traced op of every other workload, so that each
// per-layer metric has observations. The spans are written to tracePath.
func runTraced(name string, seed uint64, d time.Duration, tracePath string) (*result, error) {
	tr := newTracer()
	w, _ := newWorkload(name, d/2)
	if err := w.setup(seed); err != nil {
		w.close()
		return nil, err
	}
	plain, err := w.measure(d/2, nil, 0)
	if err != nil {
		w.close()
		return nil, err
	}
	w.close()
	// Set up again so the traced half offers the same inputs to a fresh
	// program (serve-mix would otherwise find its whole mix cached).
	w, _ = newWorkload(name, d/2)
	if err := w.setup(seed); err != nil {
		w.close()
		return nil, err
	}
	traced, err := w.measure(d/2, tr, plain.attempted)
	w.close()
	if err != nil {
		return nil, err
	}
	total := &sample{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
		badChecks: plain.badChecks + traced.badChecks, firstErr: errors.Join(plain.firstErr, traced.firstErr)}
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		o, _ := newWorkload(other, probeServeTime)
		if err := o.setup(seed); err != nil {
			o.close()
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		ps, err := o.measure(0, tr, total.attempted)
		o.close()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		total.attempted += ps.attempted
		total.failed += ps.failed
		total.badChecks += ps.badChecks
		total.firstErr = errors.Join(total.firstErr, ps.firstErr)
	}
	if total.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed: %v\n", total.failed, total.attempted, total.firstErr)
	}
	if len(plain.latMs) == 0 || len(traced.latMs) == 0 {
		return nil, errors.New("no op succeeded")
	}
	tr.Count("bench.trace_overhead_frac", median(traced.latMs)/median(plain.latMs)-1)
	if err := tr.write(tracePath, name, seed); err != nil {
		return nil, err
	}
	metrics, err := layerMetrics(tr)
	if err != nil {
		return nil, err
	}
	return &result{Correct: total.badChecks == 0, Attempted: total.attempted, Failed: total.failed, Metrics: metrics}, nil
}

// probeServeTime is how long serve-mix offers load when it runs as a probe
// in another workload's traced run.
const probeServeTime = 2 * time.Second

// layerMetrics reduces the trace to the per-layer metrics: the median
// duration of each named span and the median of each count. Every metric
// must have at least one observation.
func layerMetrics(tr *Tracer) (map[string]metric, error) {
	out := make(map[string]metric)
	var missing []string
	for _, lm := range perLayer() {
		xs := tr.Counts(lm.name)
		if lm.span != "" {
			xs = tr.Durations(lm.span)
		}
		if len(xs) == 0 {
			missing = append(missing, lm.name)
			continue
		}
		out[lm.name] = metric{median(xs), lm.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("traced run recorded nothing for %v", missing)
	}
	return out, nil
}
