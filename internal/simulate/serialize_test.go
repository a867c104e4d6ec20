package simulate

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// tinyProblem builds a small fixed instance: two nodes, two VNFs, three
// chained requests, sized so a BufferSize-1 run produces drops (populating
// the per-instance maps) without generating an unwieldy sample set.
func tinyProblem(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
	t.Helper()
	p := &model.Problem{
		Nodes: []model.Node{
			{ID: "n1", Capacity: 10},
			{ID: "n2", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 1, ServiceRate: 40},
			{ID: "nat", Instances: 1, Demand: 1, ServiceRate: 30},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 6, DeliveryProb: 0.95},
			{ID: "r2", Chain: []model.VNFID{"fw"}, Rate: 8, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"nat", "fw"}, Rate: 4, DeliveryProb: 0.9},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "n1")
	pl.Assign("nat", "n2")
	return p, sched, pl
}

// tinyResults runs the tiny fixture deterministically, keeping samples
// when keepSamples is set.
func tinyResults(t *testing.T, keepSamples bool) *Results {
	t.Helper()
	p, sched, pl := tinyProblem(t)
	res, err := Run(Config{
		Problem:     p,
		Schedule:    sched,
		Placement:   pl,
		Horizon:     10,
		Warmup:      1,
		LinkDelay:   0.001,
		BufferSize:  1,
		Seed:        7,
		KeepSamples: keepSamples,
		FaultPlan: &FaultPlan{Outages: []Outage{
			{Node: "n2", DownAt: 4, UpAt: 5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// encodeResults renders res through WriteJSON.
func encodeResults(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultsJSONGolden pins the wire encoding to a committed fixture:
// field renames, ordering changes, or float drift all break this test.
// Regenerate intentionally with `go test ./internal/simulate -run Golden -update`.
func TestResultsJSONGolden(t *testing.T) {
	got := encodeResults(t, tinyResults(t, true))
	path := filepath.Join("testdata", "results.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("results JSON drifted from golden %s (len %d vs %d); rerun with -update only for intentional format changes",
			path, len(got), len(want))
	}
}

// TestResultsJSONRoundTrip asserts decode(encode(res)) preserves every field
// and that re-encoding yields byte-identical JSON (the stable-encoding
// property the service result cache relies on).
func TestResultsJSONRoundTrip(t *testing.T) {
	res := tinyResults(t, true)
	first := encodeResults(t, res)
	back, err := ReadResultsJSON(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := encodeResults(t, back)
	if !bytes.Equal(first, second) {
		t.Error("re-encoded results differ from the original encoding")
	}
	if back.Generated != res.Generated || back.Delivered != res.Delivered ||
		back.Dropped != res.Dropped || back.InFlight != res.InFlight ||
		back.FailureDrops != res.FailureDrops {
		t.Errorf("scalar counters drifted: got %+v", back)
	}
	if back.Latency != res.Latency {
		t.Errorf("latency summary drifted: %v vs %v", back.Latency, res.Latency)
	}
	if back.LatencySketch != res.LatencySketch {
		t.Error("latency sketch drifted")
	}
	if !reflect.DeepEqual(back.Utilization, res.Utilization) {
		t.Errorf("utilization map drifted")
	}
	if !reflect.DeepEqual(back.DroppedByInstance, res.DroppedByInstance) {
		t.Errorf("dropped-by-instance map drifted")
	}
	if !reflect.DeepEqual(back.Downtime, res.Downtime) {
		t.Errorf("downtime map drifted")
	}
	if !reflect.DeepEqual(back.PerRequest, res.PerRequest) {
		t.Errorf("per-request summaries drifted")
	}
	if !reflect.DeepEqual(back.PerInstance, res.PerInstance) {
		t.Errorf("per-instance summaries drifted")
	}
	if len(back.LatencySamples) != len(res.LatencySamples) {
		t.Fatalf("sample count drifted: %d vs %d", len(back.LatencySamples), len(res.LatencySamples))
	}
	for i := range back.LatencySamples {
		if back.LatencySamples[i] != res.LatencySamples[i] {
			t.Fatalf("sample %d drifted: %v vs %v", i, back.LatencySamples[i], res.LatencySamples[i])
		}
	}
}

// TestReadResultsJSONStrict rejects unknown fields and bad agenda spellings.
func TestReadResultsJSONStrict(t *testing.T) {
	if _, err := ReadResultsJSON(strings.NewReader(`{"horizon": 1, "bogus": 2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadResultsJSON(strings.NewReader(`{"horizon": 1, "agenda": "calendar"}`)); err == nil {
		t.Error("unknown agenda kind accepted")
	}
	if _, err := ReadResultsJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestResultsJSONDefaultOmitsSamples asserts a default run's document
// carries the latency sketch and no latencySamples key, and round-trips
// byte for byte.
func TestResultsJSONDefaultOmitsSamples(t *testing.T) {
	res := tinyResults(t, false)
	if len(res.LatencySamples) != 0 {
		t.Fatalf("default run kept %d samples", len(res.LatencySamples))
	}
	doc := encodeResults(t, res)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(doc, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["latencySamples"]; ok {
		t.Error("default run's document has a latencySamples key")
	}
	if _, ok := keys["latencySketch"]; !ok {
		t.Error("document has no latencySketch key")
	}
	back, err := ReadResultsJSON(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(t, back), doc) {
		t.Error("re-encoded default document differs")
	}
	if back.LatencySketch != res.LatencySketch || back.LatencySketch.Count() != res.Latency.N() {
		t.Error("latency sketch drifted")
	}
}

// editResultsDoc decodes a Results document into its top-level fields,
// applies edit and re-encodes it.
func editResultsDoc(t *testing.T, doc []byte, edit func(map[string]json.RawMessage)) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil {
		t.Fatal(err)
	}
	edit(fields)
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadResultsJSONLatencyCounts rejects documents whose sketch or
// samples disagree with latency.n, including one written before the sketch
// existed.
func TestReadResultsJSONLatencyCounts(t *testing.T) {
	doc := encodeResults(t, tinyResults(t, true))
	cases := map[string]func(map[string]json.RawMessage){
		"no sketch (old document)": func(f map[string]json.RawMessage) { delete(f, "latencySketch") },
		"empty sketch": func(f map[string]json.RawMessage) {
			f["latencySketch"] = json.RawMessage(`{"zero":0,"overflow":0,"offset":0,"counts":[]}`)
		},
		"sketch one short": func(f map[string]json.RawMessage) {
			f["latencySketch"] = json.RawMessage(`{"zero":1,"overflow":0,"offset":0,"counts":[]}`)
		},
		"one sample dropped": func(f map[string]json.RawMessage) {
			var xs []float64
			if err := json.Unmarshal(f["latencySamples"], &xs); err != nil {
				t.Fatal(err)
			}
			f["latencySamples"], _ = json.Marshal(xs[1:])
		},
	}
	for name, edit := range cases {
		if _, err := ReadResultsJSON(bytes.NewReader(editResultsDoc(t, doc, edit))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	noSamples := editResultsDoc(t, doc, func(f map[string]json.RawMessage) { delete(f, "latencySamples") })
	if _, err := ReadResultsJSON(bytes.NewReader(noSamples)); err != nil {
		t.Errorf("document without samples rejected: %v", err)
	}
}

// FuzzReadResultsJSON throws hostile documents at the Results boundary:
// every input either fails with an error or decodes into Results whose
// sketch counts latency.n and whose encoding is a fixed point of the round
// trip. Nothing panics, and the sketch's fixed bucket array means no input
// allocates in proportion to a claimed offset.
func FuzzReadResultsJSON(f *testing.F) {
	var buf bytes.Buffer
	for _, keep := range []bool{true, false} {
		buf.Reset()
		p, sched := singleQueueProblem(50, 80, 1)
		res, err := Run(Config{Problem: p, Schedule: sched, Horizon: 1, Seed: 3, KeepSamples: keep})
		if err != nil {
			f.Fatal(err)
		}
		if err := res.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	sketch := func(s string) []byte {
		return []byte(`{"horizon":1,"warmup":0,"generated":1,"delivered":1,` +
			`"latency":{"n":1,"mean":0.01,"m2":0,"min":0.01,"max":0.01},"latencySketch":` + s +
			`,"retransmissions":0,"dropped":0,"dropRetransmits":0,"inFlight":0,"failureDrops":0,"failRetransmits":0,"availability":1}`)
	}
	for _, s := range []string{
		`{"zero":0,"overflow":0,"offset":-231,"counts":[1]}`,
		`{"zero":-1,"overflow":2,"offset":0,"counts":[]}`,
		`{"zero":0,"overflow":0,"offset":-9223372036854775808,"counts":[1]}`,
		`{"zero":0,"overflow":0,"offset":9223372036854775807,"counts":[1]}`,
		`{"zero":0,"overflow":0,"offset":570,"counts":[1,0,0,0,0,0,0,1]}`,
		`{"zero":0,"overflow":0,"offset":0,"counts":[NaN]}`,
		`{"zero":9223372036854775807,"overflow":1,"offset":0,"counts":[]}`,
		`{"zero":0,"overflow":0,"offset":-231,"counts":[2]}`,
	} {
		f.Add(sketch(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResultsJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := res.LatencySketch.Count(); got != res.Latency.N() {
			t.Fatalf("accepted a sketch counting %d latencies against latency.n %d", got, res.Latency.N())
		}
		var first bytes.Buffer
		if err := res.WriteJSON(&first); err != nil {
			return // e.g. a NaN-free document whose moments overflow to ±Inf
		}
		back, err := ReadResultsJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("round trip of an accepted document is not a fixed point")
		}
	})
}
