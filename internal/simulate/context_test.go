package simulate

import (
	"context"
	"errors"
	"testing"
	"time"

	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// defaultWorkloadRunWith mirrors defaultWorkloadRun but executes the run
// through the supplied runner, for exercising RunContext paths.
func defaultWorkloadRunWith(t *testing.T, cfg Config, run func(Config) (*Results, error)) (*Results, error) {
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
	return run(cfg)
}

// TestRunContextBackgroundIdentical asserts the ctx-polling loop leaves the
// event stream untouched: a background-context run is bit-identical to Run.
func TestRunContextBackgroundIdentical(t *testing.T) {
	cfg := Config{Horizon: 20, Warmup: 2, Seed: 7, BufferSize: 2, KeepSamples: true}
	direct := defaultWorkloadRun(t, cfg)
	want := fingerprintResults(direct)
	ctxRes, err := defaultWorkloadRunWith(t, cfg, func(c Config) (*Results, error) {
		return RunContext(context.Background(), c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintResults(ctxRes); got != want {
		t.Errorf("RunContext(Background) fingerprint %#x != Run fingerprint %#x", got, want)
	}
}

// TestRunContextCancelled asserts a pre-cancelled context aborts the run
// with ctx.Err() and a nil Results.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := defaultWorkloadRunWith(t, Config{Horizon: 50, Warmup: 1, Seed: 7},
		func(c Config) (*Results, error) { return RunContext(ctx, c) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned non-nil Results")
	}
}

// TestRunContextCancelMidRun cancels a long run from another goroutine and
// asserts it aborts promptly (within one ctx-check interval of events)
// instead of simulating the full horizon.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Uncancelled, this horizon takes minutes of wall clock.
	_, err := defaultWorkloadRunWith(t, Config{Horizon: 1e6, Warmup: 1, Seed: 7},
		func(c Config) (*Results, error) { return RunContext(ctx, c) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestSimulatorRunContextNeedsReset asserts the reusable API still demands a
// Reset before each RunContext.
func TestSimulatorRunContextNeedsReset(t *testing.T) {
	var sim Simulator
	if _, err := sim.RunContext(context.Background()); err == nil {
		t.Error("RunContext without Reset succeeded")
	}
}
