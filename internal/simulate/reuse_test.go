package simulate

import (
	"testing"

	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// TestSimulatorReuseMatchesFreshRuns pins the Reset contract: one Simulator
// driven through a sequence of heterogeneous configs (different seeds,
// buffering, drop policies, distributions) must produce bit-identical results
// to a fresh package-level Run per config. Any state leaking across Resets —
// a stale ring-buffer entry, an unzeroed arena slot, a retained sample —
// changes a fingerprint.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
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
	configs := []Config{
		{Horizon: 5, Warmup: 1, Seed: 7, KeepSamples: true},
		{Horizon: 5, Warmup: 1, Seed: 8}, // same shape, new seed, sketch only: arena reuse
		{Horizon: 5, Warmup: 1, Seed: 7, BufferSize: 2, KeepSamples: true},
		{Horizon: 2, Seed: 7, BufferSize: 2, DropPolicy: DropRetransmit, RetransmitDelay: 0.004, KeepSamples: true},
		{Horizon: 4, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal, KeepSamples: true},
		{Horizon: 5, Warmup: 1, Seed: 7, KeepSamples: true}, // repeat of the first: full cycle back
	}
	sim := NewSimulator()
	for i, cfg := range configs {
		cfg.Problem, cfg.Schedule = p, sched
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: fresh run: %v", i, err)
		}
		if err := sim.Reset(cfg); err != nil {
			t.Fatalf("config %d: reset: %v", i, err)
		}
		reused, err := sim.Run()
		if err != nil {
			t.Fatalf("config %d: reused run: %v", i, err)
		}
		// Fingerprint the reused Results immediately — it aliases the
		// simulator's buffers and is only valid until the next Reset.
		if ff, fr := fingerprintResults(fresh), fingerprintResults(reused); ff != fr {
			t.Errorf("config %d: reused simulator diverged from fresh run: %#x vs %#x", i, fr, ff)
		}
		if fresh.LatencySketch != reused.LatencySketch || len(fresh.LatencySamples) != len(reused.LatencySamples) {
			t.Errorf("config %d: reused sketch or samples diverged from fresh run", i)
		}
	}
}

// TestSimulatorRunRequiresReset pins the misuse error path.
func TestSimulatorRunRequiresReset(t *testing.T) {
	if _, err := NewSimulator().Run(); err == nil {
		t.Fatal("Run before Reset succeeded, want error")
	}
}
