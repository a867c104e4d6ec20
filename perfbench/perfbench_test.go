package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/simulate"
)

const specPath = "../BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runResult runs the benchmark and decodes the last line of its output.
func runResult(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "--trace-dir", t.TempDir()), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line: %v", err)
	}
	return res
}

// checkMetrics verifies a result reports exactly the named metrics, with
// their units, as positive finite numbers where want says so.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var got, names []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if positive && !(m.Value > 0) {
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
	for _, m := range want {
		names = append(names, m.Name)
		if res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(names)
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("metrics\n got %v\nwant %v", got, names)
	}
}

// TestSmokeEachWorkload runs every workload briefly, untraced, and checks
// it reports every end-to-end metric of BENCHMARK.json with no failed op.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 0); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := runResult(t, "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0")
			checkMetrics(t, res, spec.EndToEnd, true)
		})
	}
}

// TestSmokeTraced runs one traced run, which also probes every other
// workload, and checks it reports every per-layer metric of BENCHMARK.json.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	res := runResult(t, "--workload", "anytime-race", "--seed", "3", "--seconds", "0.5", "--trace", "1")
	checkMetrics(t, res, readSpec(t).PerLayer, false)
}

// TestPerLayerNamesMatchSpec pins the per-layer list against BENCHMARK.json
// without running anything.
func TestPerLayerNamesMatchSpec(t *testing.T) {
	var got, want []string
	for _, lm := range perLayer() {
		got = append(got, lm.name+"/"+lm.unit)
	}
	for _, m := range readSpec(t).PerLayer {
		want = append(want, m.Name+"/"+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
}

func TestGenProblemDeterministicAtFixedLoad(t *testing.T) {
	a, err := genProblem(7, demoShape)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genProblem(7, demoShape)
	c, _ := genProblem(8, demoShape)
	var ab, cb bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	_ = b.WriteJSON(&cb)
	if ab.String() != cb.String() {
		t.Error("same seed gave different problems")
	}
	cb.Reset()
	_ = c.WriteJSON(&cb)
	if ab.String() == cb.String() {
		t.Error("different seeds gave the same problem")
	}
	for _, p := range []*model.Problem{a, c} {
		var sum float64
		for _, r := range p.Requests {
			sum += r.Rate
		}
		if want := float64(demoShape.Requests) * (rateMin + rateMax) / 2; sum < want*(1-1e-9) || sum > want*(1+1e-9) {
			t.Errorf("offered rate %v, want %v", sum, want)
		}
	}
}

// TestTracedCallsMatchLibrary pins that splitting the composite calls into
// per-layer calls for tracing does not change their outputs.
func TestTracedCallsMatchLibrary(t *testing.T) {
	p, err := genProblem(11, demoShape)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := optimize(nil, 0, -1, p, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := optimize(tr, 0, -1, p, 11)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := encodeSolution(plain)
	b, _ := encodeSolution(traced)
	if err := checkSameBytes("traced optimize", b, a); err != nil {
		t.Fatal(err)
	}
	cfg := core.SimulationConfig{Horizon: 2, Warmup: 0.5, Seed: 11}
	resPlain, err := simulateSolution(nil, 0, -1, plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ = encodeResults(resPlain)
	resTraced, err := simulateSolution(tr, 0, -1, plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = encodeResults(resTraced)
	if err := checkSameBytes("traced simulate", b, a); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"placement.bfdsu", "scheduling.rckk", "scheduling.admission", "simulate.reset", "simulate.run"} {
		if len(tr.Durations(span)) != 1 {
			t.Errorf("span %s recorded %d times, want 1", span, len(tr.Durations(span)))
		}
	}
}

func TestTailLatency(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {8, 8}, {12, 11}, {50, 45}, {130, 120}, {1000, 990}, {2000, 1980},
	} {
		if got := tailLatency(ramp(c.n)); got != c.want {
			t.Errorf("tailLatency of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("root", 0, -1, at(0), at(100))
	tr.Add("a", 0, root, at(10), at(40))
	tr.Add("b", 0, root, at(30), at(50)) // overlaps a by 10 ms
	child := tr.Add("c", 0, root, at(60), at(70))
	tr.Add("d", 0, child, at(61), at(65))
	tr.finish()
	for i, want := range []float64{50, 30, 20, 6, 4} {
		if got := tr.spans[i].Self; got < want-1e-6 || got > want+1e-6 {
			t.Errorf("span %s self %v ms, want %v", tr.spans[i].Name, got, want)
		}
	}
	var untraced *Tracer
	if id := untraced.Begin("x", 0, -1); id != -1 {
		t.Errorf("nil tracer Begin = %d, want -1", id)
	}
	untraced.End(0)
	untraced.Count("x", 1)
}

// TestSoloSolversSkipInfeasible pins the traced run's solo-solver probe on
// seed 7, whose first problem nah cannot place: the attempt is traced as an
// outcome, the next problem is tried, and only a solver that places none of
// the problems fails the run.
func TestSoloSolversSkipInfeasible(t *testing.T) {
	seeds := opSeeds(7, 3)
	problems := make([]*model.Problem, len(seeds))
	for i, s := range seeds {
		p, err := genProblem(s, demoShape)
		if err != nil {
			t.Fatal(err)
		}
		problems[i] = p
	}
	tr := newTracer()
	if err := soloSolvers(tr, 0, -1, problems, seeds); err != nil {
		t.Fatalf("soloSolvers: %v", err)
	}
	if len(tr.Durations("portfolio.nah.infeasible")) == 0 {
		t.Error("no portfolio.nah.infeasible span: seed 7 no longer exercises the skip")
	}
	for _, text := range portfolio.DefaultPortfolio() {
		if len(tr.Durations("portfolio."+text)) != 1 || len(tr.Counts("portfolio."+text+".iters_per_s")) != 1 {
			t.Errorf("solver %s: want one span and one iters_per_s", text)
		}
	}
	if err := soloSolvers(newTracer(), 0, -1, problems[:1], seeds[:1]); err == nil {
		t.Error("soloSolvers succeeded although nah places none of the problems")
	}
}

// newFixture returns one real solution with its JSON and the JSON of a
// short simulation of it, for the tamper tests.
func newFixture(t *testing.T) (*core.Solution, []byte, []byte) {
	t.Helper()
	p, err := genProblem(5, demoShape)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := optimize(nil, 0, -1, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	solData, err := encodeSolution(sol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulateSolution(nil, 0, -1, sol, core.SimulationConfig{Horizon: 1, Warmup: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	resData, err := encodeResults(res)
	if err != nil {
		t.Fatal(err)
	}
	return sol, solData, resData
}

// TestChecksCatchTampering proves each output check fails on a tampered
// output (and passes on the untampered one).
func TestChecksCatchTampering(t *testing.T) {
	sol, solData, resData := newFixture(t)
	decodeSol := func() *core.Solution {
		s, err := decodeSolution(solData)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	decodeRes := func() *simulate.Results {
		r, err := decodeResults(resData)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := checkSolutionDoc(decodeSol(), solData); err != nil {
		t.Fatalf("untampered solution: %v", err)
	}
	if err := checkResultsDoc(decodeRes(), resData); err != nil {
		t.Fatalf("untampered results: %v", err)
	}
	if len(sol.Problem.Requests) == 0 {
		t.Fatal("empty fixture")
	}

	cases := map[string]func() error{
		"ledger": func() error {
			r := decodeRes()
			r.Delivered--
			return checkLedger(r)
		},
		"results round trip": func() error {
			r := decodeRes()
			r.Horizon += 1
			return checkResultsDoc(r, resData)
		},
		"solution round trip": func() error {
			s := decodeSol()
			s.PlacementIterations++
			return checkSolutionDoc(s, solData)
		},
		"placement feasibility": func() error {
			s := decodeSol()
			for f := range s.Placement.NodeOf {
				s.Placement.NodeOf[f] = "no-such-node"
				break
			}
			return checkSolution(s)
		},
		"placement capacity": func() error {
			s := decodeSol()
			for f := range s.Placement.NodeOf {
				s.Placement.NodeOf[f] = s.Problem.Nodes[0].ID
			}
			return checkSolution(s)
		},
		"schedule coverage": func() error {
			s := decodeSol()
			r := s.Problem.Requests[0]
			delete(s.Schedule.InstanceOf, r.ID)
			return checkSolution(s)
		},
		"rejected request still assigned": func() error {
			s := decodeSol()
			s.Rejected = append(s.Rejected, s.Problem.Requests[0].ID)
			return checkSolution(s)
		},
		"served vs library bytes": func() error {
			served := bytes.Clone(solData)
			served[len(served)/2] ^= 1
			return checkSameBytes("served", served, solData)
		},
		"cluster totals": func() error {
			r := decodeRes()
			return checkClusterLedger(&cluster.Results{
				Datacenters: []cluster.DCResults{{Name: "dc0", Results: r}},
				Generated:   r.Generated + 1, Delivered: r.Delivered, InFlight: r.InFlight, Dropped: r.Dropped,
			})
		},
		"cluster routing": func() error {
			r := decodeRes()
			return checkClusterLedger(&cluster.Results{
				Datacenters: []cluster.DCResults{{Name: "dc0", Results: r}},
				Generated:   r.Generated, Delivered: r.Delivered, InFlight: r.InFlight, Dropped: r.Dropped,
				RoutedByDC: []int{3}, RoutedLocal: 1, WANHops: 1,
			})
		},
		"race objective repeat": func() error {
			calls := 0
			winner := func(*model.Problem, uint64) (float64, error) {
				calls++
				return float64(calls), nil // every run differs
			}
			s := &sample{}
			w := &closedLoop{problems: []*model.Problem{sol.Problem}, seeds: []uint64{5}}
			if _, err := raceObjective(w, s, winner); err != nil {
				return nil
			}
			return s.firstErr
		},
	}
	for name, check := range cases {
		if err := check(); err == nil {
			t.Errorf("%s: tampered output passed", name)
		}
	}
}
