package stats

import "math"

// SketchAlpha is the relative accuracy of every Sketch: a quantile it
// reports lies within SketchAlpha (1%) of the exact nearest-rank sample
// whenever that sample falls inside the tracked range [1 µs, 1e5 s].
const SketchAlpha = 0.01

// Bucket i of a Sketch holds the values in (γ^(i−1), γ^i], with
// γ = (1+α)/(1−α). The fixed index range below covers [1e-6, 1e5]:
// ceil(log_γ 1e-6) = −690 and ceil(log_γ 1e5) = 576.
const (
	sketchMinIndex = -690
	sketchMaxIndex = 576
	sketchBuckets  = sketchMaxIndex - sketchMinIndex + 1

	sketchLow  = 1e-6 // smaller values (and NaN) count as underflow
	sketchHigh = 1e5  // larger values count as overflow
)

var (
	sketchGamma       = (1 + SketchAlpha) / (1 - SketchAlpha)
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
)

// Sketch is a log-bucketed quantile sketch with relative accuracy
// SketchAlpha, in the style of DDSketch (Masson et al., VLDB 2019). Its
// buckets are a fixed array, so the zero value is ready to use, Add never
// allocates, Merge is an exact bucket-by-bucket sum and two sketches of the
// same data compare equal with ==. Values below 1 µs count as underflow and
// report as 0; values above 1e5 s count as overflow and report as +Inf.
type Sketch struct {
	counts   [sketchBuckets]int
	zero     int // underflow: values below sketchLow, and NaN
	overflow int // values above sketchHigh
}

// sketchIndex returns ceil(log_γ x) for x in [sketchLow, sketchHigh].
func sketchIndex(x float64) int {
	return int(math.Ceil(math.Log(x) * sketchInvLogGamma))
}

// Add folds one observation into the sketch.
func (s *Sketch) Add(x float64) {
	switch {
	case !(x >= sketchLow):
		s.zero++
	case x > sketchHigh:
		s.overflow++
	default:
		s.counts[sketchIndex(x)-sketchMinIndex]++
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() int {
	n := s.zero + s.overflow
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Merge folds another sketch into this one. The result equals the sketch
// of the concatenated observations.
func (s *Sketch) Merge(o *Sketch) {
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.zero += o.zero
	s.overflow += o.overflow
}

// Reset empties the sketch in place.
func (s *Sketch) Reset() { *s = Sketch{} }

// Quantile returns the nearest-rank q-quantile (q in [0,1]): the
// representative of the bucket holding the ⌈q·n⌉-th smallest observation
// (the smallest for q = 0). It reports ok = false on an empty sketch or a q
// outside [0,1].
func (s *Sketch) Quantile(q float64) (float64, bool) {
	n := s.Count()
	if n == 0 || !(q >= 0 && q <= 1) {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zero {
		return 0, true
	}
	seen := s.zero
	for i, c := range s.counts {
		seen += c
		if rank <= seen {
			return sketchValue(i + sketchMinIndex), true
		}
	}
	return math.Inf(1), true
}

// Quantiles returns several nearest-rank quantiles, each as Quantile would;
// ok = false on an empty sketch or any q outside [0,1].
func (s *Sketch) Quantiles(qs ...float64) ([]float64, bool) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, ok := s.Quantile(q)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// sketchValue is bucket i's representative 2γ^i/(γ+1), within α of every
// value in (γ^(i−1), γ^i].
func sketchValue(i int) float64 {
	return 2 * math.Pow(sketchGamma, float64(i)) / (sketchGamma + 1)
}
