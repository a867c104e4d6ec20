package simulate

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// streamFixture solves the default generated workload and samples a trace —
// the shared fixture of the trace-replay goldens.
func streamFixture(t *testing.T) (*model.Problem, *model.Schedule, *workload.Trace) {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 11
	wcfg.NumRequests = 60
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateTrace(p, 20, workload.InterArrivalExponential, 21)
	if err != nil {
		t.Fatal(err)
	}
	return p, sched, tr
}

// goldenTraceReplay is the fingerprint of replaying streamFixture's trace
// (Horizon 20, Warmup 2, Seed 7).
const goldenTraceReplay = 0x28938ab6f8d34ac8

// TestTraceReplayGolden pins trace replay of a GenerateTrace sample to
// fingerprints captured when a workload.Trace was still seeded into the
// agenda up front, so its Cursor replay stays bit-identical to that path.
// The "grid" case snaps every
// row to a 10 ms grid, so many rows of different requests share a timestamp
// and replay order among them rests on the row-order tie-break alone. The
// "tied" case replays bursts on a 1/64 s grid into one deterministic
// 64 pps server with a one-packet buffer: every service completion ties a
// trace row exactly, and whether the row or the completion runs first
// decides whether the row is dropped.
func TestTraceReplayGolden(t *testing.T) {
	p, sched, tr := streamFixture(t)
	grid := &workload.Trace{Horizon: tr.Horizon}
	for _, a := range tr.Arrivals {
		grid.Arrivals = append(grid.Arrivals, workload.Arrival{Time: math.Floor(a.Time*100) / 100, Request: a.Request})
	}
	qp, qsched := singleQueueProblem(64, 64, 1)
	tied := &workload.Trace{Horizon: 20}
	st := rng.New(5)
	for k := 0; k < 20*64; k++ {
		for n := st.IntN(4); n > 0; n-- {
			tied.Arrivals = append(tied.Arrivals, workload.Arrival{Time: float64(k) / 64, Request: "r"})
		}
	}
	base := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7, KeepSamples: true}
	queue := Config{Problem: qp, Schedule: qsched, Horizon: 20, Warmup: 2, Seed: 7,
		BufferSize: 1, ServiceDist: ServiceDeterministic, KeepSamples: true}
	cases := []struct {
		name string
		cfg  Config
		tr   *workload.Trace
		want uint64
	}{
		{"generated", base, tr, goldenTraceReplay},
		{"grid", base, grid, 0xcfe0b1bffe5cc2b3},
		{"tied", queue, tied, 0x119de0c5a732b03c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TraceStream = tc.tr.Cursor()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintResults(res); got != tc.want {
				t.Errorf("trace replay fingerprint %#x, want golden %#x", got, tc.want)
			}
		})
	}
}

// TestStreamReplayFromCSV closes the loop through the file format: a CSV
// written by the trace is replayed via workload.TraceStream and must match
// the trace-replay golden bit for bit.
func TestStreamReplayFromCSV(t *testing.T) {
	p, sched, tr := streamFixture(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := workload.NewTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7, TraceStream: ts, KeepSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintResults(res); got != goldenTraceReplay {
		t.Errorf("CSV-streamed fingerprint %#x != golden %#x", got, goldenTraceReplay)
	}
}

// TestExplicitSourcesMatchGolden pins the second identity: the flat-Poisson
// default routed through the ArrivalSource interface — here spelled out as
// explicit workload.PoissonSource overrides on the very streams the simulator
// derives itself — reproduces the historical golden fingerprint bit for bit.
func TestExplicitSourcesMatchGolden(t *testing.T) {
	const goldenPlain = 0x4af579b7b3270177
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 11
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7, KeepSamples: true}
	srcs := make(map[model.RequestID]ArrivalSource, len(p.Requests))
	for _, r := range p.Requests {
		srcs[r.ID] = workload.NewPoisson(r.Rate, rng.Derive(cfg.Seed, "arrivals/"+string(r.ID)))
	}
	cfg.Sources = srcs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintResults(res); got != goldenPlain {
		t.Errorf("explicit-sources fingerprint %#x != golden %#x", got, goldenPlain)
	}
}

// syntheticCursor produces n evenly spaced arrivals of one request without
// materializing anything — the O(1)-memory feed of the scale test.
type syntheticCursor struct {
	n  int
	dt float64
	id model.RequestID
	i  int
}

func (c *syntheticCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.i >= c.n {
		return 0, "", false
	}
	c.i++
	return float64(c.i) * c.dt, c.id, true
}

func (c *syntheticCursor) Err() error { return nil }

// TestStreamPendingEventsConstant is the acceptance-scale check: a streamed
// replay of 1M arrivals stages exactly one arrival event at t=0 — the live
// cursor count, not the arrival count — and still generates every packet.
// An in-memory workload.Trace replayed through its Cursor keeps the same
// bound for the whole run: one pending trace row plus at most one event per
// packet in flight, however many rows the trace holds.
func TestStreamPendingEventsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-arrival replay")
	}
	const n = 1_000_000
	prob, sched := singleQueueProblem(50, 40000, 1)
	cur := &syntheticCursor{n: n, dt: 30.0 / n, id: prob.Requests[0].ID}
	sim := NewSimulator()
	cfg := Config{Problem: prob, Schedule: sched, Horizon: 60, Warmup: 0, Seed: 5,
		TraceStream: cur}
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := sim.PendingEvents(); got != 1 {
		t.Fatalf("streamed pending events at t=0 = %d, want 1 (one live cursor)", got)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != n {
		t.Fatalf("generated %d of %d streamed arrivals", res.Generated, n)
	}
	if len(res.LatencySamples) != 0 || res.LatencySketch.Count() != res.Latency.N() {
		t.Fatalf("default run kept %d samples; sketch counts %d of %d latencies",
			len(res.LatencySamples), res.LatencySketch.Count(), res.Latency.N())
	}

	const rows = 20000
	tr := &workload.Trace{Horizon: 30}
	for i := 1; i <= rows; i++ {
		tr.Arrivals = append(tr.Arrivals, workload.Arrival{Time: float64(i) * 30.0 / rows, Request: prob.Requests[0].ID})
	}
	simT := NewSimulator()
	if err := simT.Reset(Config{Problem: prob, Schedule: sched, Horizon: 60, Seed: 5, TraceStream: tr.Cursor()}); err != nil {
		t.Fatal(err)
	}
	if got := simT.PendingEvents(); got != 1 {
		t.Fatalf("Trace.Cursor pending events at t=0 = %d, want 1 (one live cursor)", got)
	}
	peak := 0
	for simT.HasPendingEvents() {
		if pe, live := simT.PendingEvents(), simT.PendingPackets(); pe > 1+live {
			t.Fatalf("pending events %d exceed one trace row + %d packets in flight", pe, live)
		} else if pe > peak {
			peak = pe
		}
		simT.ProcessNextEvent()
	}
	resT, err := simT.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if resT.Generated != rows {
		t.Fatalf("generated %d of %d trace rows", resT.Generated, rows)
	}
	t.Logf("Trace.Cursor replay of %d rows: peak %d pending events", rows, peak)
}

// errCursor yields a decreasing timestamp pair.
type errCursor struct{ i int }

func (c *errCursor) NextArrival() (float64, model.RequestID, bool) {
	c.i++
	switch c.i {
	case 1:
		return 5, "r", true
	case 2:
		return 1, "r", true
	}
	return 0, "", false
}

func (c *errCursor) Err() error { return nil }

// TestStreamOutOfOrderFails asserts a cursor that goes backwards in time
// aborts the run with an error instead of silently reordering arrivals.
func TestStreamOutOfOrderFails(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	_, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 60, Seed: 5,
		TraceStream: &errCursor{}})
	if err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

// TestStreamConfigValidation covers the Sources/TraceStream exclusion.
func TestStreamConfigValidation(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	tr, err := workload.GenerateTrace(prob, 5, workload.InterArrivalExponential, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[model.RequestID]ArrivalSource{
		prob.Requests[0].ID: workload.NewPoisson(50, rng.Derive(1, "x")),
	}
	cases := map[string]Config{
		"sources+stream": {Problem: prob, Schedule: sched, Horizon: 5, TraceStream: tr.Cursor(), Sources: srcs},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestTraceReplayRejectsHostileRows asserts a trace row with a NaN,
// negative or decreasing time fails the run with an error naming the row,
// rather than being generated and never delivered or silently reordered.
func TestTraceReplayRejectsHostileRows(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	id := prob.Requests[0].ID
	cases := []struct {
		name  string
		times []float64
		row   string
	}{
		{"nan", []float64{0.1, math.NaN(), 0.3}, "trace row 2"},
		{"negative", []float64{0.1, 0.2, -1}, "trace row 3"},
		{"decreasing", []float64{0.1, 0.3, 0.2}, "trace row 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &workload.Trace{Horizon: 1}
			for _, tm := range tc.times {
				tr.Arrivals = append(tr.Arrivals, workload.Arrival{Time: tm, Request: id})
			}
			_, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 1, Seed: 5, TraceStream: tr.Cursor()})
			if err == nil {
				t.Fatal("hostile trace row accepted")
			}
			if !strings.Contains(err.Error(), tc.row) {
				t.Errorf("error %q does not name %q", err, tc.row)
			}
		})
	}
}
