package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// nearestRank is the exact counterpart of Sketch.Quantile on sorted data.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// withinAlpha reports whether got is within SketchAlpha of want, allowing
// for float rounding at bucket boundaries.
func withinAlpha(got, want float64) bool {
	return math.Abs(got-want) <= SketchAlpha*(1+1e-9)*want
}

// TestSketchIndexRange pins the bucket constants to their definition and
// the edges of the tracked range.
func TestSketchIndexRange(t *testing.T) {
	logGamma := math.Log(sketchGamma)
	if got := int(math.Ceil(math.Log(sketchLow) / logGamma)); got != sketchMinIndex {
		t.Errorf("ceil(log_γ %g) = %d, sketchMinIndex = %d", sketchLow, got, sketchMinIndex)
	}
	if got := int(math.Ceil(math.Log(sketchHigh) / logGamma)); got != sketchMaxIndex {
		t.Errorf("ceil(log_γ %g) = %d, sketchMaxIndex = %d", sketchHigh, got, sketchMaxIndex)
	}
	var s Sketch
	s.Add(sketchLow)
	s.Add(sketchHigh)
	if s.counts[0] != 1 || s.counts[sketchBuckets-1] != 1 {
		t.Errorf("range edges missed the end buckets: first %d, last %d", s.counts[0], s.counts[sketchBuckets-1])
	}
	for _, x := range []float64{0, -1, math.NaN(), sketchLow / 2} {
		s.Add(x)
	}
	for _, x := range []float64{2 * sketchHigh, math.Inf(1)} {
		s.Add(x)
	}
	if s.zero != 4 || s.overflow != 2 || s.Count() != 8 {
		t.Errorf("zero %d overflow %d count %d, want 4, 2, 8", s.zero, s.overflow, s.Count())
	}
}

// TestSketchAccuracy checks every percentile of heavy-tailed data against
// the exact nearest-rank sample.
func TestSketchAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	var s Sketch
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64()*2 - 5)
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	for p := 0; p <= 1000; p++ {
		q := float64(p) / 1000
		got, ok := s.Quantile(q)
		if !ok {
			t.Fatalf("q=%v: ok = false", q)
		}
		if want := nearestRank(xs, q); !withinAlpha(got, want) {
			t.Errorf("q=%v: sketch %v, exact %v (rel err %.4f)", q, got, want, math.Abs(got-want)/want)
		}
	}
}

// TestSketchBucketRepresentative checks that each bucket's representative
// is within α of both ends of the bucket.
func TestSketchBucketRepresentative(t *testing.T) {
	for i := sketchMinIndex; i <= sketchMaxIndex; i++ {
		rep := sketchValue(i)
		hi := math.Pow(sketchGamma, float64(i))
		lo := math.Pow(sketchGamma, float64(i-1))
		if !withinAlpha(rep, hi) || !withinAlpha(rep, lo) {
			t.Fatalf("bucket %d: representative %v not within α of (%v, %v]", i, rep, lo, hi)
		}
	}
}

// TestSketchQuantileEdges covers the empty sketch, out-of-range q and the
// under- and overflow buckets.
func TestSketchQuantileEdges(t *testing.T) {
	var s Sketch
	if _, ok := s.Quantile(0.5); ok {
		t.Error("empty sketch reported a quantile")
	}
	if _, ok := s.Quantiles(0.5, 0.99); ok {
		t.Error("empty sketch reported quantiles")
	}
	s.Add(0)
	s.Add(1)
	s.Add(1e9)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, ok := s.Quantile(q); ok {
			t.Errorf("q=%v accepted", q)
		}
	}
	qs, ok := s.Quantiles(0, 0.5, 1)
	if !ok {
		t.Fatal("Quantiles not ok")
	}
	if qs[0] != 0 || !withinAlpha(qs[1], 1) || !math.IsInf(qs[2], 1) {
		t.Errorf("quantiles %v, want [0 ≈1 +Inf]", qs)
	}
}

// TestSketchMerge asserts Merge(a, b) equals the sketch of the
// concatenated data, bucket for bucket.
func TestSketchMerge(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var a, b, all Sketch
	for i := 0; i < 5000; i++ {
		x := r.ExpFloat64() * 0.01
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Add(0)
	all.Add(0)
	b.Add(math.Inf(1))
	all.Add(math.Inf(1))
	a.Merge(&b)
	if a != all {
		t.Error("merged sketch differs from the sketch of the concatenated data")
	}
	a.Reset()
	if a != (Sketch{}) || a.Count() != 0 {
		t.Error("Reset left observations behind")
	}
}

// TestSketchAddAllocates nothing.
func TestSketchAddAllocates(t *testing.T) {
	s := new(Sketch)
	x := 0.001
	if n := testing.AllocsPerRun(100, func() { s.Add(x); x *= 1.1 }); n != 0 {
		t.Errorf("Add allocated %v times per call", n)
	}
}

// TestSketchJSONRoundTrip asserts the round trip is exact and the
// re-encoding byte-identical, for an empty and a populated sketch.
func TestSketchJSONRoundTrip(t *testing.T) {
	var full Sketch
	for _, x := range []float64{0, 1e-4, 0.002, 0.002, 0.5, 3, 1e7} {
		full.Add(x)
	}
	for _, s := range []Sketch{{}, full} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Sketch
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if back != s {
			t.Errorf("%s: round trip drifted", data)
		}
		again, _ := json.Marshal(back)
		if !bytes.Equal(again, data) {
			t.Errorf("re-encoding unstable: %s vs %s", again, data)
		}
	}
	if data, _ := json.Marshal(Sketch{}); string(data) != `{"zero":0,"overflow":0,"offset":0,"counts":[]}` {
		t.Errorf("empty sketch encodes as %s", data)
	}
}

// TestSketchJSONStrict rejects malformed and hostile documents.
func TestSketchJSONStrict(t *testing.T) {
	for name, doc := range map[string]string{
		"unknown field":      `{"zero":0,"overflow":0,"offset":0,"counts":[],"n":1}`,
		"negative zero":      `{"zero":-1,"overflow":0,"offset":0,"counts":[]}`,
		"negative overflow":  `{"zero":0,"overflow":-1,"offset":0,"counts":[]}`,
		"negative count":     `{"zero":0,"overflow":0,"offset":0,"counts":[2,-1,2]}`,
		"fractional count":   `{"zero":0,"overflow":0,"offset":0,"counts":[1.5]}`,
		"NaN count":          `{"zero":0,"overflow":0,"offset":0,"counts":[NaN]}`,
		"offset below range": `{"zero":0,"overflow":0,"offset":-691,"counts":[1]}`,
		"offset above range": `{"zero":0,"overflow":0,"offset":577,"counts":[1]}`,
		"offset at min int":  `{"zero":0,"overflow":0,"offset":-9223372036854775808,"counts":[1]}`,
		"offset at max int":  `{"zero":0,"overflow":0,"offset":9223372036854775807,"counts":[1]}`,
		"offset past int":    `{"zero":0,"overflow":0,"offset":9223372036854775808,"counts":[1]}`,
		"span past range":    `{"zero":0,"overflow":0,"offset":576,"counts":[1,1]}`,
		"empty span offset":  `{"zero":0,"overflow":0,"offset":3,"counts":[]}`,
		"leading zero":       `{"zero":0,"overflow":0,"offset":0,"counts":[0,1]}`,
		"trailing zero":      `{"zero":0,"overflow":0,"offset":0,"counts":[1,0]}`,
		"total overflows":    `{"zero":9223372036854775807,"overflow":0,"offset":0,"counts":[1]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("%s: %s accepted", name, doc)
		}
	}
	var s Sketch
	if err := json.Unmarshal([]byte(`{"zero":1,"overflow":2,"offset":576,"counts":[3]}`), &s); err != nil {
		t.Errorf("last bucket rejected: %v", err)
	} else if s.Count() != 6 {
		t.Errorf("count %d, want 6", s.Count())
	}
}
