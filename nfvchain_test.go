package nfvchain

import (
	"testing"
)

func TestEndToEndFacade(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 80
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Optimize(p, Options{Seed: 1, LinkDelay: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AvgUtilization <= 0 || ev.NodesInService < 1 {
		t.Errorf("evaluation implausible: %+v", ev)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 5, Warmup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("simulation delivered nothing")
	}
}

func TestFacadeConstructors(t *testing.T) {
	placers := []PlacementAlgorithm{
		NewBFDSU(1), NewFFD(), NewBFD(), NewWFD(), NewNAH(), NewExactPlacer(),
	}
	wantPlacers := []string{"BFDSU", "FFD", "BFD", "WFD", "NAH", "Exact"}
	for i, alg := range placers {
		if alg.Name() != wantPlacers[i] {
			t.Errorf("placer %d name = %s, want %s", i, alg.Name(), wantPlacers[i])
		}
	}
	schedulers := []SchedulingAlgorithm{NewRCKK(), NewCGA(), NewExactScheduler()}
	wantScheds := []string{"RCKK", "CGA", "Exact"}
	for i, alg := range schedulers {
		if alg.Name() != wantScheds[i] {
			t.Errorf("scheduler %d name = %s, want %s", i, alg.Name(), wantScheds[i])
		}
	}
}

func TestFacadeCustomAlgorithms(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 40
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Optimize(p, Options{Placer: NewFFD(), Scheduler: NewCGA()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.PlacementIterations != 1 {
		t.Errorf("FFD iterations = %d", sol.PlacementIterations)
	}
}

func TestFacadeTraceDriven(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 20
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 3, TraceStream: tr.Cursor(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("trace-driven simulation delivered nothing")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// New scheduler constructors.
	for _, alg := range []SchedulingAlgorithm{NewCKK(), NewKKForward(), NewRoundRobin()} {
		if alg.Name() == "" {
			t.Error("unnamed scheduler")
		}
	}

	// Topology + router + TA placer.
	topo, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChainRouter(topo); err != nil {
		t.Fatal(err)
	}
	if names := SNDlibTopologyNames(); len(names) != 5 {
		t.Errorf("SNDlibTopologyNames = %v", names)
	}
	if _, err := NewSNDlibTopology("abilene"); err != nil {
		t.Error(err)
	}
	if _, err := NewRandomTopology(10, 15, 1); err != nil {
		t.Error(err)
	}
	if NewTopologyAwarePlacer(topo, 1).Name() != "TA-BFDSU" {
		t.Error("TA placer name wrong")
	}

	// Dynamic controller round trip.
	base := &Problem{
		Nodes: []Node{{ID: "n", Capacity: 100}},
		VNFs:  []VNF{{ID: "f", Instances: 1, Demand: 10, ServiceRate: 100}},
	}
	ctrl, err := NewDynamicController(DynamicConfig{Problem: base, SetupCost: SetupCostClickOS})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctrl.Admit(Request{ID: "r", Chain: []VNFID{"f"}, Rate: 10, DeliveryProb: 1}, 0)
	if err != nil || !out.Accepted {
		t.Fatalf("admit: %v %+v", err, out)
	}
	if SetupCostVM <= SetupCostClickOS {
		t.Error("setup cost constants inverted")
	}

	// Multi-resource annotation.
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 30
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AddMemoryDimension(p, 1); err != nil {
		t.Fatal(err)
	}
	if p.ExtraResources() != 1 {
		t.Error("memory dimension missing")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	if DefaultExperimentConfig().SchedulingTrials != 1000 {
		t.Error("default experiment config should match the paper's protocol")
	}
	tab, err := RunExperiment("fig12", ExperimentConfig{Seed: 1, PlacementTrials: 2, SchedulingTrials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig12" || len(tab.Series) == 0 {
		t.Errorf("experiment table implausible: %+v", tab)
	}
	if err := FastExperimentConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadePolishAndBounds(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 60
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.5 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	sol, err := Optimize(p, Options{Placer: NewWFD()})
	if err != nil {
		t.Fatal(err)
	}
	lb := PlacementLowerBound(p)
	if lb < 1 {
		t.Errorf("lower bound = %d", lb)
	}
	better, err := ImprovePlacement(p, sol.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if better.NodesInService() > sol.Placement.NodesInService() {
		t.Error("ImprovePlacement worsened node count")
	}
	if better.NodesInService() < lb {
		t.Errorf("polished placement %d beats the lower bound %d", better.NodesInService(), lb)
	}
	sched, err := ImproveSchedule(p, sol.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(p); err != nil {
		t.Fatal(err)
	}
}
