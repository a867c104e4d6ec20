package core

import (
	"strings"
	"testing"

	"nfvchain/internal/repair"
	"nfvchain/internal/simulate"
)

// clusterSolution optimizes a small 2-region cluster for the fault-plumbing
// tests.
func clusterSolution(t *testing.T) *ClusterSolution {
	t.Helper()
	base := genProblem(t, 4)
	cs, err := OptimizeCluster(base, ClusterOptions{
		Datacenters:    2,
		GlobalFraction: 0.2,
		Options:        Options{Seed: 4, LinkDelay: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClusterPerDatacenterFaultPlans pins the per-region fault plumbing: a
// plan attached to region 0 only must produce downtime there and nowhere
// else, with a per-region repair hook observing exactly its own region's
// transitions — and none of it may depend on the worker count.
func TestClusterPerDatacenterFaultPlans(t *testing.T) {
	cs := clusterSolution(t)
	node := cs.Regions[0].Problem.Nodes[0].ID
	run := func(workers int) (*simulate.Results, *simulate.Results, repair.Stats) {
		ctrl, err := repair.New(repair.Config{
			Problem:   cs.Regions[0].Problem,
			Placement: cs.Regions[0].Placement,
			Schedule:  cs.Regions[0].Schedule,
			Mode:      repair.ModeRescheduleReplace,
			SetupCost: 0.05,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateCluster(cs, ClusterSimConfig{
			Sim:        SimulationConfig{Horizon: 6, Warmup: 0.5, Seed: 11},
			Seed:       3,
			Workers:    workers,
			FaultPlans: []*simulate.FaultPlan{{Outages: []simulate.Outage{{Node: node, DownAt: 1, UpAt: 3}}}, nil},
			FaultHooks: []simulate.FaultHook{ctrl, nil},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Datacenters[0].Results, res.Datacenters[1].Results, ctrl.Stats()
	}
	r0, r1, stats := run(0)
	if len(r0.Downtime) == 0 || r0.Downtime[node] <= 0 {
		t.Errorf("region 0 downtime missing: %v", r0.Downtime)
	}
	if len(r1.Downtime) != 0 {
		t.Errorf("fault plan leaked into region 1: %v", r1.Downtime)
	}
	if stats.NodeFailures != 1 || stats.NodeRecoveries != 1 {
		t.Errorf("hook saw %+v, want exactly region 0's one outage", stats)
	}
	// Draining on two goroutines must agree bit-for-bit.
	w0, w1, wstats := run(2)
	if w0.Delivered != r0.Delivered || w0.FailureDrops != r0.FailureDrops ||
		w1.Delivered != r1.Delivered || wstats != stats {
		t.Errorf("workers=2 diverged under per-region faults: %d/%d/%d vs %d/%d/%d",
			w0.Delivered, w0.FailureDrops, w1.Delivered, r0.Delivered, r0.FailureDrops, r1.Delivered)
	}
}

// TestClusterFaultPlanValidation covers the length contract: plans and hooks
// are all-regions-or-none.
func TestClusterFaultPlanValidation(t *testing.T) {
	cs := clusterSolution(t)
	if _, err := SimulateCluster(cs, ClusterSimConfig{
		Sim:        SimulationConfig{Horizon: 2},
		FaultPlans: []*simulate.FaultPlan{{}},
	}); err == nil || !strings.Contains(err.Error(), "fault plans") {
		t.Errorf("mismatched FaultPlans accepted: %v", err)
	}
	if _, err := SimulateCluster(cs, ClusterSimConfig{
		Sim:        SimulationConfig{Horizon: 2},
		FaultHooks: []simulate.FaultHook{nil},
	}); err == nil || !strings.Contains(err.Error(), "fault hooks") {
		t.Errorf("mismatched FaultHooks accepted: %v", err)
	}
}
