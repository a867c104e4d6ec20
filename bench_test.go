package nfvchain

// Benchmark harness: one BenchmarkFigNN per evaluation figure of the paper
// (each iteration regenerates that figure's full sweep at reduced averaging
// — run `go run ./cmd/nfvsim -fig all` for the paper-protocol curves),
// BenchmarkScenarios over the internal/benchsuite registry that
// results/BENCH.json records (the simulator and partitioner hot paths, and
// RCKK's reverse pairing vs forward combining as RCKK/n=250 vs
// KKForward/n=250), plus micro-benchmarks of the other algorithms and
// ablation benches for the design choices DESIGN.md calls out.

import (
	"fmt"
	"testing"

	"nfvchain/internal/benchsuite"
	"nfvchain/internal/dynamic"
	"nfvchain/internal/experiment"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/queueing"
	"nfvchain/internal/rng"
	"nfvchain/internal/routing"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/topology"
	"nfvchain/internal/workload"
)

// benchConfig keeps per-iteration cost manageable; shapes (who wins, by
// what factor) are preserved, only curve smoothness is reduced.
func benchConfig() experiment.Config {
	return experiment.Config{Seed: 1, PlacementTrials: 3, SchedulingTrials: 20}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// One benchmark per paper figure (Figs. 5–16 and the p99 tail statistics).

func BenchmarkFig05Utilization(b *testing.B)        { benchFigure(b, "fig5") }
func BenchmarkFig06UtilizationScale(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFig07UtilizationNodes(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig08NodesInService(b *testing.B)     { benchFigure(b, "fig8") }
func BenchmarkFig09ResourceOccupation(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10Iterations(b *testing.B)         { benchFigure(b, "fig10") }
func BenchmarkFig11ResponseP098(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12ResponseP100(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13ResponseInstances098(b *testing.B) {
	benchFigure(b, "fig13")
}
func BenchmarkFig14ResponseInstances100(b *testing.B) {
	benchFigure(b, "fig14")
}
func BenchmarkFig15RejectionLowLoss(b *testing.B)  { benchFigure(b, "fig15") }
func BenchmarkFig16RejectionHighLoss(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFigTailP99(b *testing.B)             { benchFigure(b, "tail") }

// Extension experiments.

func BenchmarkFigAblationPlacement(b *testing.B)  { benchFigure(b, "ablation-placement") }
func BenchmarkFigAblationScheduling(b *testing.B) { benchFigure(b, "ablation-scheduling") }
func BenchmarkFigRobustness(b *testing.B)         { benchFigure(b, "robustness") }

// BenchmarkScenarios runs every registry scenario under its BENCH.json name,
// so `go test -bench Scenarios/<name>` and `nfvbench -run <name>` time the
// same body. Sub-benchmarks do not inherit ReportAllocs, so each sets it.
func BenchmarkScenarios(b *testing.B) {
	for _, sc := range benchsuite.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			sc.Run(b)
		})
	}
}

// --- Placement micro-benchmarks --------------------------------------------

func placementInstance(b *testing.B, vnfs, requests, nodes int) *model.Problem {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumVNFs = vnfs
	cfg.NumRequests = requests
	cfg.NumNodes = nodes
	p, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scale := 0.6 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	return p
}

func benchPlacer(b *testing.B, mk func(seed uint64) placement.Algorithm) {
	p := placementInstance(b, 15, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk(uint64(i)).Place(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceBFDSU(b *testing.B) {
	benchPlacer(b, func(s uint64) placement.Algorithm { return &placement.BFDSU{Seed: s} })
}

func BenchmarkPlaceFFD(b *testing.B) {
	benchPlacer(b, func(uint64) placement.Algorithm { return placement.FFD{} })
}

func BenchmarkPlaceNAH(b *testing.B) {
	benchPlacer(b, func(uint64) placement.Algorithm { return placement.NAH{} })
}

// BenchmarkAblationPlacementRandomization compares BFDSU against its
// derandomized core (deterministic BFD): the gap in ns/op is the cost of the
// weighted draws; DESIGN.md's ablation tests measure the quality side.
func BenchmarkAblationPlacementRandomization(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	b.Run("BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&placement.BFDSU{Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (placement.BFD{}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Scheduling micro-benchmarks -------------------------------------------

func schedulingItems(n int, seed uint64) []scheduling.Item {
	s := rng.New(seed)
	items := make([]scheduling.Item, n)
	for i := range items {
		items[i] = scheduling.Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	return items
}

func benchPartitioner(b *testing.B, alg scheduling.Partitioner) {
	for _, n := range []int{50, 250, 1000, 2000} {
		items := schedulingItems(n, 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Partition(items, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleCGA(b *testing.B) { benchPartitioner(b, scheduling.CGA{}) }

func BenchmarkAdmissionControl(b *testing.B) {
	p := placementInstance(b, 15, 500, 10)
	sched, err := scheduling.ScheduleAll(p, scheduling.CGA{ArrivalOrder: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.ApplyAdmissionControl(p, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Queueing micro-benchmarks ---------------------------------------------

func BenchmarkJacksonSolve(b *testing.B) {
	n, err := queueing.ChainNetwork(2, 0.98, []float64{100, 120, 90, 150, 110, 95})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocality compares plain BFDSU against the topology-aware
// variant on a fat-tree: the ns/op gap is the price of the locality factor;
// the routing tests measure the network-delay payoff.
func BenchmarkAblationLocality(b *testing.B) {
	topo, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumNodes = 16
	cfg.NumRequests = 200
	p, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := range p.Nodes {
		p.Nodes[i].ID = model.NodeID(topo.ComputeVertices()[i])
	}
	scale := 0.6 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	b.Run("BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&placement.BFDSU{Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TA-BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&routing.TopologyAware{Topo: topo, Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDynamicAdmitDepart(b *testing.B) {
	base := &model.Problem{
		Nodes: []model.Node{{ID: "n1", Capacity: 10000}, {ID: "n2", Capacity: 10000}},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 4, Demand: 50, ServiceRate: 10000},
			{ID: "nat", Instances: 2, Demand: 30, ServiceRate: 10000},
		},
	}
	ctrl, err := dynamic.New(dynamic.Config{Problem: base, SetupCost: dynamic.SetupCostClickOS})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		id := model.RequestID(fmt.Sprintf("r%d", i))
		out, err := ctrl.Admit(model.Request{
			ID: id, Chain: []model.VNFID{"fw", "nat"}, Rate: 5, DeliveryProb: 0.98,
		}, now)
		if err != nil {
			b.Fatal(err)
		}
		if out.Accepted {
			if err := ctrl.Depart(id, now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkImprovePlacement(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	res, err := (placement.WFD{}).Place(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Improve(p, res.Placement, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImproveSchedule(b *testing.B) {
	items := schedulingItems(250, 7)
	assign, err := (scheduling.RoundRobin{}).Partition(items, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.Improve(items, assign, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndOptimize(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(p, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
