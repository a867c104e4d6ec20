package simulate

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nfvchain/internal/model"
	"nfvchain/internal/stats"
)

// resultsJSON is the stable wire form of a Results. Instance-keyed maps are
// flattened into slices sorted by (vnf, instance) — struct map keys have no
// JSON spelling — and string-keyed maps rely on encoding/json's sorted-key
// output, so encoding the same Results always yields the same bytes (the
// property the service result cache and the golden fixture depend on).
type resultsJSON struct {
	Horizon float64 `json:"horizon"`
	Warmup  float64 `json:"warmup"`

	Generated      int           `json:"generated"`
	Delivered      int           `json:"delivered"`
	Latency        stats.Summary `json:"latency"`
	LatencySketch  stats.Sketch  `json:"latencySketch"`
	LatencySamples []float64     `json:"latencySamples,omitempty"`

	Retransmissions   int                 `json:"retransmissions"`
	Dropped           int                 `json:"dropped"`
	DroppedByInstance []instanceCountJSON `json:"droppedByInstance,omitempty"`
	DropRetransmits   int                 `json:"dropRetransmits"`
	InFlight          int                 `json:"inFlight"`
	// Shed is omitted when zero so control-free results keep the historical
	// byte encoding (the golden fixture and result cache pin it).
	Shed int `json:"shed,omitempty"`

	FailureDrops           int                 `json:"failureDrops"`
	FailureDropsByInstance []instanceCountJSON `json:"failureDropsByInstance,omitempty"`
	FailRetransmits        int                 `json:"failRetransmits"`
	Downtime               map[string]float64  `json:"downtime,omitempty"`

	Availability float64 `json:"availability"`

	Utilization []instanceValueJSON       `json:"utilization,omitempty"`
	MeanJobs    []instanceValueJSON       `json:"meanJobs,omitempty"`
	PerRequest  map[string]*stats.Summary `json:"perRequest,omitempty"`
	PerInstance []instanceSummaryJSON     `json:"perInstance,omitempty"`
}

// instanceCountJSON flattens one map[InstanceKey]int entry.
type instanceCountJSON struct {
	VNF      model.VNFID `json:"vnf"`
	Instance int         `json:"instance"`
	Count    int         `json:"count"`
}

// instanceValueJSON flattens one map[InstanceKey]float64 entry.
type instanceValueJSON struct {
	VNF      model.VNFID `json:"vnf"`
	Instance int         `json:"instance"`
	Value    float64     `json:"value"`
}

// instanceSummaryJSON flattens one map[InstanceKey]*stats.Summary entry.
type instanceSummaryJSON struct {
	VNF      model.VNFID   `json:"vnf"`
	Instance int           `json:"instance"`
	Summary  stats.Summary `json:"summary"`
}

// sortedKeys returns the map's instance keys ordered by (vnf, instance).
func sortedKeys[T any](m map[InstanceKey]T) []InstanceKey {
	keys := make([]InstanceKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].VNF != keys[j].VNF {
			return keys[i].VNF < keys[j].VNF
		}
		return keys[i].Instance < keys[j].Instance
	})
	return keys
}

func flattenCounts(m map[InstanceKey]int) []instanceCountJSON {
	if len(m) == 0 {
		return nil
	}
	out := make([]instanceCountJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, instanceCountJSON{VNF: k.VNF, Instance: k.Instance, Count: m[k]})
	}
	return out
}

func flattenValues(m map[InstanceKey]float64) []instanceValueJSON {
	if len(m) == 0 {
		return nil
	}
	out := make([]instanceValueJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, instanceValueJSON{VNF: k.VNF, Instance: k.Instance, Value: m[k]})
	}
	return out
}

func flattenSummaries(m map[InstanceKey]*stats.Summary) []instanceSummaryJSON {
	if len(m) == 0 {
		return nil
	}
	out := make([]instanceSummaryJSON, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, instanceSummaryJSON{VNF: k.VNF, Instance: k.Instance, Summary: *m[k]})
	}
	return out
}

// WriteJSON serializes the results as indented JSON in a stable encoding:
// identical Results always produce identical bytes.
func (r *Results) WriteJSON(w io.Writer) error {
	raw := resultsJSON{
		Horizon:                r.Horizon,
		Warmup:                 r.Warmup,
		Generated:              r.Generated,
		Delivered:              r.Delivered,
		Latency:                r.Latency,
		LatencySketch:          r.LatencySketch,
		LatencySamples:         r.LatencySamples,
		Retransmissions:        r.Retransmissions,
		Dropped:                r.Dropped,
		DroppedByInstance:      flattenCounts(r.DroppedByInstance),
		DropRetransmits:        r.DropRetransmits,
		InFlight:               r.InFlight,
		Shed:                   r.Shed,
		FailureDrops:           r.FailureDrops,
		FailureDropsByInstance: flattenCounts(r.FailureDropsByInstance),
		FailRetransmits:        r.FailRetransmits,
		Availability:           r.Availability,
		Utilization:            flattenValues(r.Utilization),
		MeanJobs:               flattenValues(r.MeanJobs),
		PerInstance:            flattenSummaries(r.PerInstance),
	}
	if len(r.Downtime) > 0 {
		raw.Downtime = make(map[string]float64, len(r.Downtime))
		for n, dt := range r.Downtime {
			raw.Downtime[string(n)] = dt
		}
	}
	if len(r.PerRequest) > 0 {
		raw.PerRequest = make(map[string]*stats.Summary, len(r.PerRequest))
		for id, sum := range r.PerRequest {
			raw.PerRequest[string(id)] = sum
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(raw); err != nil {
		return fmt.Errorf("simulate: encode results: %w", err)
	}
	return nil
}

// ReadResultsJSON parses results written by WriteJSON. Unknown fields are
// rejected so wire-format drift fails loudly, and so is a document whose
// latency sketch or samples do not count latency.n observations (which
// includes documents written before the sketch existed). The returned
// Results is independently owned (maps are always non-nil, mirroring a
// fresh Run).
func ReadResultsJSON(r io.Reader) (*Results, error) {
	var raw resultsJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("simulate: decode results: %w", err)
	}
	if n, got := raw.Latency.N(), raw.LatencySketch.Count(); got != n {
		return nil, fmt.Errorf("simulate: decode results: latency sketch counts %d latencies, latency.n is %d", got, n)
	}
	if n, got := raw.Latency.N(), len(raw.LatencySamples); got != 0 && got != n {
		return nil, fmt.Errorf("simulate: decode results: %d latency samples, latency.n is %d", got, n)
	}
	out := &Results{
		Horizon:                raw.Horizon,
		Warmup:                 raw.Warmup,
		Generated:              raw.Generated,
		Delivered:              raw.Delivered,
		Latency:                raw.Latency,
		LatencySketch:          raw.LatencySketch,
		LatencySamples:         raw.LatencySamples,
		Retransmissions:        raw.Retransmissions,
		Dropped:                raw.Dropped,
		DroppedByInstance:      make(map[InstanceKey]int, len(raw.DroppedByInstance)),
		DropRetransmits:        raw.DropRetransmits,
		InFlight:               raw.InFlight,
		Shed:                   raw.Shed,
		FailureDrops:           raw.FailureDrops,
		FailureDropsByInstance: make(map[InstanceKey]int, len(raw.FailureDropsByInstance)),
		FailRetransmits:        raw.FailRetransmits,
		Downtime:               make(map[model.NodeID]float64, len(raw.Downtime)),
		Availability:           raw.Availability,
		Utilization:            make(map[InstanceKey]float64, len(raw.Utilization)),
		MeanJobs:               make(map[InstanceKey]float64, len(raw.MeanJobs)),
		PerRequest:             make(map[model.RequestID]*stats.Summary, len(raw.PerRequest)),
		PerInstance:            make(map[InstanceKey]*stats.Summary, len(raw.PerInstance)),
	}
	for _, e := range raw.DroppedByInstance {
		out.DroppedByInstance[InstanceKey{VNF: e.VNF, Instance: e.Instance}] = e.Count
	}
	for _, e := range raw.FailureDropsByInstance {
		out.FailureDropsByInstance[InstanceKey{VNF: e.VNF, Instance: e.Instance}] = e.Count
	}
	for n, dt := range raw.Downtime {
		out.Downtime[model.NodeID(n)] = dt
	}
	for _, e := range raw.Utilization {
		out.Utilization[InstanceKey{VNF: e.VNF, Instance: e.Instance}] = e.Value
	}
	for _, e := range raw.MeanJobs {
		out.MeanJobs[InstanceKey{VNF: e.VNF, Instance: e.Instance}] = e.Value
	}
	for id, sum := range raw.PerRequest {
		out.PerRequest[model.RequestID(id)] = sum
	}
	for _, e := range raw.PerInstance {
		sum := new(stats.Summary)
		*sum = e.Summary
		out.PerInstance[InstanceKey{VNF: e.VNF, Instance: e.Instance}] = sum
	}
	return out, nil
}
