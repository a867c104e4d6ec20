package simulate

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// fingerprintResults folds every deterministic field of a Results into one
// FNV-1a hash, using exact float bit patterns so any numeric drift — however
// small — changes the fingerprint.
func fingerprintResults(res *Results) uint64 {
	h := fnv.New64a()
	writeInt := func(v int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeInt(res.Generated)
	writeInt(res.Delivered)
	writeInt(res.Retransmissions)
	writeInt(res.Dropped)
	writeFloat(res.Latency.Mean())
	writeFloat(res.Latency.Variance())
	writeFloat(res.Latency.Min())
	writeFloat(res.Latency.Max())
	for _, lat := range res.LatencySamples {
		writeFloat(lat)
	}
	keys := make([]InstanceKey, 0, len(res.Utilization))
	for k := range res.Utilization {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].VNF != keys[j].VNF {
			return keys[i].VNF < keys[j].VNF
		}
		return keys[i].Instance < keys[j].Instance
	})
	for _, k := range keys {
		h.Write([]byte(k.VNF))
		writeInt(k.Instance)
		writeFloat(res.Utilization[k])
		writeFloat(res.MeanJobs[k])
	}
	return h.Sum64()
}

// defaultWorkloadRun solves the default generated workload with RCKK and
// simulates it — the fixture shared by the determinism goldens.
func defaultWorkloadRun(t *testing.T, cfg Config) *Results {
	t.Helper()
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
	cfg.Problem = p
	cfg.Schedule = sched
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSeedDeterminismGolden pins the simulator's output on the default
// workload to fingerprints captured before the pooling/ring-buffer refactor.
// Any change to event ordering, RNG consumption, or float arithmetic breaks
// these goldens — allocation-oriented rewrites must keep them bit-identical.
func TestSeedDeterminismGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{
			name: "plain",
			cfg:  Config{Horizon: 20, Warmup: 2, Seed: 7, KeepSamples: true},
			want: 0x4af579b7b3270177,
		},
		{
			name: "buffered",
			cfg:  Config{Horizon: 20, Warmup: 2, Seed: 7, BufferSize: 2, KeepSamples: true},
			want: 0x7c13b08e2cdb0988,
		},
		{
			name: "lognormal",
			cfg:  Config{Horizon: 15, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal, KeepSamples: true},
			want: 0xb81fe93896fa901a,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := defaultWorkloadRun(t, tc.cfg)
			got := fingerprintResults(res)
			if got != tc.want {
				t.Errorf("fingerprint = %#x, want %#x (seed-determinism regression)", got, tc.want)
			}
		})
	}
}

// TestRunTwiceIdentical asserts two runs with identical configs produce
// bit-identical results — object pooling must not leak state across runs.
func TestRunTwiceIdentical(t *testing.T) {
	cfg := Config{Horizon: 25, Warmup: 3, Seed: 13, BufferSize: 3, KeepSamples: true}
	a := defaultWorkloadRun(t, cfg)
	b := defaultWorkloadRun(t, cfg)
	if fa, fb := fingerprintResults(a), fingerprintResults(b); fa != fb {
		t.Errorf("two identical runs diverged: %#x vs %#x", fa, fb)
	}
	if len(a.LatencySamples) != len(b.LatencySamples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.LatencySamples), len(b.LatencySamples))
	}
	for i := range a.LatencySamples {
		if a.LatencySamples[i] != b.LatencySamples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.LatencySamples[i], b.LatencySamples[i])
		}
	}
}

// TestGoldenPrint regenerates the golden fingerprints when run with -v; it
// never fails and exists so future refactors can re-derive the constants
// after an *intentional* semantic change.
func TestGoldenPrint(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Horizon: 20, Warmup: 2, Seed: 7, KeepSamples: true}},
		{"buffered", Config{Horizon: 20, Warmup: 2, Seed: 7, BufferSize: 2, KeepSamples: true}},
		{"lognormal", Config{Horizon: 15, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal, KeepSamples: true}},
	} {
		res := defaultWorkloadRun(t, tc.cfg)
		t.Logf("%s: %#x (samples=%d delivered=%d dropped=%d)",
			tc.name, fingerprintResults(res), len(res.LatencySamples), res.Delivered, res.Dropped)
	}
}
