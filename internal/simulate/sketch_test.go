package simulate

import (
	"math"
	"sort"
	"testing"

	"nfvchain/internal/stats"
)

// nearestRank returns the exact nearest-rank q-quantile of sorted samples,
// the convention stats.Sketch.Quantile reports in.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestLatencySketchMatchesSamples runs the determinism fixture and a
// heavy-tailed log-normal-service one with KeepSamples and checks the
// sketch against the exact samples: the tail quantiles are within
// SketchAlpha of the nearest-rank sample, and a sketch rebuilt from the
// samples equals the run's sketch bucket for bucket.
func TestLatencySketchMatchesSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"demo", Config{Horizon: 20, Warmup: 2, Seed: 7, KeepSamples: true}},
		{"lognormal", Config{Horizon: 15, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal, KeepSamples: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := defaultWorkloadRun(t, tc.cfg)
			if n := res.Latency.N(); n == 0 || len(res.LatencySamples) != n || res.LatencySketch.Count() != n {
				t.Fatalf("latency n %d, %d samples, sketch count %d", n, len(res.LatencySamples), res.LatencySketch.Count())
			}
			var rebuilt stats.Sketch
			for _, x := range res.LatencySamples {
				rebuilt.Add(x)
			}
			if rebuilt != res.LatencySketch {
				t.Error("sketch rebuilt from the samples differs from the run's sketch")
			}
			sorted := append([]float64(nil), res.LatencySamples...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				got, ok := res.LatencySketch.Quantile(q)
				want := nearestRank(sorted, q)
				if !ok || math.Abs(got-want) > stats.SketchAlpha*(1+1e-9)*want {
					t.Errorf("q=%v: sketch %v, exact %v (rel err %.4f)", q, got, want, math.Abs(got-want)/want)
				}
			}
		})
	}
}
