// Package benchsuite is the repository's one registry of performance
// scenarios. Two drivers run the same bodies: `go test -bench Scenarios`
// (BenchmarkScenarios in the root package, with the standard -cpuprofile,
// -memprofile, -mutexprofile and -blockprofile flags) and cmd/nfvbench, which
// writes the committed results/BENCH.json trajectory and gates regressions
// against it.
//
// The scenarios cover the pipeline's hot paths:
//   - the discrete-event simulator at small, large and deep horizons, on a
//     fresh and on a reused Simulator, with Poisson, streamed-trace and
//     bursty client-class arrivals;
//   - drop-retransmit loss feedback, node failure churn under the repair
//     controller, and correlated preemption under the autoscale+migrate
//     control plane;
//   - the 8-datacenter cluster composition, inline and on the drain pool;
//   - the KK-family partitioners (RCKK at growing request counts, its
//     forward-combining ablation KKForward and the complete CKK search);
//   - the solver portfolio's anytime race.
//
// Names are stable across changes: BENCH.json comparisons key on them.
package benchsuite

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"nfvchain/internal/cluster"
	"nfvchain/internal/control"
	"nfvchain/internal/core"
	"nfvchain/internal/dynamic"
	"nfvchain/internal/model"
	"nfvchain/internal/repair"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// Scenario is one named benchmark body.
type Scenario struct {
	Name string
	Run  func(b *testing.B)
}

// Scenarios returns the fixed trajectory suite in BENCH.json order.
func Scenarios() []Scenario {
	out := []Scenario{
		{"Simulator/second", simulatorSecond},
		{"Simulator/large-horizon", simulatorLargeHorizon},
		{"Simulator/large-horizon-reuse", simulatorLargeHorizonReuse},
		{"Simulator/deep-horizon", simulatorDeepHorizon},
		{"Simulator/stream-replay", simulatorStreamReplay},
		{"Simulator/bursty-classes", simulatorBurstyClasses},
		{"Simulator/drop-retransmit", simulatorDropRetransmit},
		{"Simulator/failure-churn", simulatorFailureChurn},
		{"Simulator/preemption-churn", simulatorPreemptionChurn},
		{"Simulator/cluster", simulatorCluster},
		{"Simulator/cluster-parallel", simulatorClusterParallel},
	}
	for _, n := range []int{250, 1000, 2000} {
		out = append(out, Scenario{
			fmt.Sprintf("RCKK/n=%d", n),
			func(b *testing.B) { partitionBench(b, scheduling.RCKK{}, n, 5) },
		})
	}
	out = append(out,
		Scenario{"KKForward/n=250", func(b *testing.B) { partitionBench(b, scheduling.KKForward{}, 250, 5) }},
		Scenario{"CKK/n=40", func(b *testing.B) { partitionBench(b, scheduling.CKK{MaxNodes: 20_000}, 40, 4) }},
		Scenario{"Portfolio/anytime-race", portfolioAnytimeRace},
	)
	return out
}

// portfolioAnytimeRace measures the full anytime-racing path (compile, the
// baseline + metaheuristic solvers at fixed iteration budgets, winner
// finalization with admission control) on a mid-size generated workload. One
// worker and a fixed seed make every iteration bit-identical, so allocs/op
// holds exactly under the strict comparison gate.
func portfolioAnytimeRace(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.NumVNFs = 8
	cfg.NumRequests = 60
	cfg.NumNodes = 6
	prob, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if total := prob.TotalDemand(); total > 0 {
		scale := 0.6 * prob.TotalCapacity() / total
		for i := range prob.VNFs {
			prob.VNFs[i].Demand *= scale
		}
	}
	lineup := []string{"greedy", "ffd", "sa:iters=1500;polish=500", "lns:iters=30", "pso:iters=10;particles=6"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveRace(context.Background(), prob, core.RaceOptions{
			Portfolio: lineup,
			Workers:   1,
			Seed:      7,
			LinkDelay: 0.001,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ThreeStageFixture is one request at 200 pps through a 3-stage chain, one
// instance per stage.
func ThreeStageFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 400},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f1", "f2", "f3"}, Rate: 200, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	for _, f := range prob.VNFs {
		sched.Assign("r", f.ID, 0)
	}
	return prob, sched
}

// FleetFixture mirrors bench_test.go's largeHorizonFixture: 1500 pps over a
// 4-stage chain with every instance stable (ρ ≈ 0.75 at the hottest one).
func FleetFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 10000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f2", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 2000},
			{ID: "f4", Instances: 1, Demand: 1, ServiceRate: 2000},
		},
	}
	for i := 0; i < 5; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("r%d", i)),
			Chain: []model.VNFID{"f1", "f2", "f3", "f4"}, Rate: 300, DeliveryProb: 0.98,
		})
	}
	sched := model.NewSchedule()
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	return prob, sched
}

// simulatorSecond is one simulated second of the three-stage chain.
func simulatorSecond(b *testing.B) {
	prob, sched := ThreeStageFixture()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// simulatorLargeHorizon is 30 simulated seconds of the fleet (about 45k
// packets, 180k stage visits) on a fresh Simulator per iteration.
func simulatorLargeHorizon(b *testing.B) {
	prob, sched := FleetFixture()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Warmed runs one unmeasured iteration before the timed loop. Reuse-style
// scenarios grow the shared Simulator's arenas on their first run; folding
// that one-time growth into allocs/op makes the number depend on whatever
// iteration count the benchmark driver picked (flaky against the strict
// allocs gate). Warm first, then measure the deterministic steady state.
func Warmed(b *testing.B, iter func(seed uint64)) {
	iter(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(uint64(i))
	}
}

// churnSeeds is the block of seeds every timed iteration of the churn
// scenarios runs. Churn draws different faults per seed, so running seed i
// at iteration i made allocs/op depend on the iteration count the benchmark
// driver picked; the same block in every iteration, warmed once, does not.
const churnSeeds = 4

// warmedBlock is Warmed over a fixed block of seeds: one unmeasured pass
// over seeds 0..n−1, then every timed iteration runs the same n seeds, so
// each iteration does identical work and ns/op and allocs/op are per block.
func warmedBlock(b *testing.B, n int, iter func(seed uint64)) {
	block := func() {
		for seed := 0; seed < n; seed++ {
			iter(uint64(seed))
		}
	}
	block()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block()
	}
}

// simulatorLargeHorizonReuse is large-horizon through the Reset path: one
// Simulator serves every iteration, so the gap to Simulator/large-horizon is
// exactly the per-trial allocation cost sweeps save by reusing run state.
func simulatorLargeHorizonReuse(b *testing.B) {
	prob, sched := FleetFixture()
	sim := simulate.NewSimulator()
	Warmed(b, func(seed uint64) {
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorDeepHorizon stretches the fleet workload to a 300 s horizon —
// about 4.5M events, ten times the large-horizon run. The pending-event
// population stays small (queued packets wait in instance rings, not on the
// agenda), so this measures per-event cost over a long run rather than a
// large agenda. Reuses one Simulator so allocs/op reflects steady-state
// sweeps.
func simulatorDeepHorizon(b *testing.B) {
	prob, sched := FleetFixture()
	sim := simulate.NewSimulator()
	Warmed(b, func(seed uint64) {
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 300, Warmup: 2, Seed: seed,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorStreamReplay is the large-horizon fleet workload arriving through
// the streaming trace cursor: per-request Poisson sources superposed by a
// MergedStream feed Config.TraceStream one row at a time. Measures the
// single-cursor trace replay path against the per-request Poisson sources
// of Simulator/large-horizon-reuse.
func simulatorStreamReplay(b *testing.B) {
	prob, sched := FleetFixture()
	sim := simulate.NewSimulator()
	Warmed(b, func(seed uint64) {
		srcs, err := workload.TraceSources(prob, workload.InterArrivalExponential, seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			TraceStream: workload.NewMergedStream(srcs),
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorBurstyClasses drives the fleet with the heavy-traffic client-class
// mix (steady/diurnal/bursty) through Config.Sources — the generator tier's
// hot path: NHPP thinning and MMPP epoch-walking inside the event loop.
func simulatorBurstyClasses(b *testing.B) {
	prob, sched := FleetFixture()
	sim := simulate.NewSimulator()
	Warmed(b, func(seed uint64) {
		cw, err := workload.BuildSources(prob, workload.DefaultClasses(), seed)
		if err != nil {
			b.Fatal(err)
		}
		srcs := make(map[model.RequestID]simulate.ArrivalSource, len(cw.Sources))
		for id, s := range cw.Sources {
			srcs[id] = s
		}
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			Sources: srcs,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// ClusterFixture is a compact two-stage datacenter: one request generating
// local traffic plus one cluster-routed global flow sharing the same chain.
func ClusterFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "local", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
			{ID: "global", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	for _, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, 0)
		}
	}
	return prob, sched
}

// simulatorCluster composes 8 datacenter simulators under one global clock:
// each runs its own local Poisson traffic while a shared global flow is
// least-loaded-routed across them with a 5 ms WAN entry hop. Exercises the
// stepping primitives (peek/process), Inject, and the routing hot path.
func simulatorCluster(b *testing.B) {
	prob, sched := ClusterFixture()
	const dcs = 8
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: 300, Home: 0}},
			Seed:       uint64(i),
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: 10, Warmup: 1,
					Seed: uint64(i)*dcs + uint64(d),
				},
			})
		}
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// simulatorClusterParallel is the same 8-datacenter composition as
// Simulator/cluster but with sparse global traffic (4 arrivals/s against
// ~300 pps of local load per datacenter), so each conservative window
// carries thousands of drainable events, and with the drain pool sized to
// the machine (Workers = GOMAXPROCS).
func simulatorClusterParallel(b *testing.B) {
	prob, sched := ClusterFixture()
	const dcs = 8
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: 4, Home: 0}},
			Seed:       uint64(i),
			Workers:    runtime.GOMAXPROCS(0),
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: 25, Warmup: 1,
					Seed: uint64(i)*dcs + uint64(d),
				},
			})
		}
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// simulatorDropRetransmit: a stable M/M/1/4 queue (ρ = 0.8) whose blocking
// losses are re-injected from the source (NACK loss feedback). It must stay
// stable: an overloaded queue with retransmission snowballs into an event
// storm, which is a workload property rather than a simulator hot path.
func simulatorDropRetransmit(b *testing.B) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f"}, Rate: 80, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	sched.Assign("r", "f", 0)
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
			BufferSize: 3, DropPolicy: simulate.DropRetransmit, RetransmitDelay: 0.005,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ChurnFixture spreads the fleet's chain over three nodes so a node failure
// takes out a whole VNF (the co-located worst case the repair controller is
// built for), with headroom left for replacement instances.
func ChurnFixture() (*model.Problem, *model.Schedule, *model.Placement) {
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "a", Capacity: 6}, {ID: "b", Capacity: 6}, {ID: "c", Capacity: 6},
		},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f2", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 2000},
			{ID: "f4", Instances: 1, Demand: 1, ServiceRate: 2000},
		},
	}
	for i := 0; i < 5; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("r%d", i)),
			Chain: []model.VNFID{"f1", "f2", "f3", "f4"}, Rate: 300, DeliveryProb: 0.98,
		})
	}
	sched := model.NewSchedule()
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	pl := model.NewPlacement()
	pl.Assign("f1", "a")
	pl.Assign("f2", "b")
	pl.Assign("f3", "c")
	pl.Assign("f4", "c")
	return prob, sched, pl
}

// simulatorFailureChurn: the fleet workload under sustained node churn (MTBF
// = horizon/3, so roughly three outages per run) with failed packets
// retransmitted and a reschedule+replace repair controller booting ClickOS
// replacements mid-run. Measures the full self-healing path: fault events,
// epoch-guarded completions, RCKK rebalancing and BFDSU re-placement. One
// op is a block of churnSeeds runs.
func simulatorFailureChurn(b *testing.B) {
	prob, sched, pl := ChurnFixture()
	const horizon = 30.0
	ctrl, err := repair.New(repair.Config{
		Problem:   prob,
		Placement: pl,
		Schedule:  sched,
		Mode:      repair.ModeRescheduleReplace,
		SetupCost: dynamic.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.NewSimulator()
	plan := &simulate.FaultPlan{MTBF: horizon / 3, MTTR: 2}
	warmedBlock(b, churnSeeds, func(seed uint64) {
		ctrl.Reset(seed)
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			FaultHook:       ctrl,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorPreemptionChurn: the churn fixture under correlated preemption —
// two-node groups lost together about four times per run, each announced
// 0.4 s ahead — managed by the autoscale+migrate control plane ticking every
// 0.5 s. Measures the full online-control path: preemption notices and
// ahead-of-loss evacuations, windowed utilization observation, autoscaling
// with ClickOS boot costs, live migration and deterministic admission
// shedding, all on top of the repair controller's fault handling. One op is
// a block of churnSeeds runs.
func simulatorPreemptionChurn(b *testing.B) {
	prob, sched, pl := ChurnFixture()
	const horizon = 30.0
	ctrl, err := control.New(control.Config{
		Problem:       prob,
		Placement:     pl,
		Schedule:      sched,
		Policy:        control.PolicyAutoscaleMigrate,
		SetupCost:     dynamic.SetupCostClickOS,
		MigrationCost: dynamic.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.NewSimulator()
	plan := &simulate.FaultPlan{Preemption: &simulate.PreemptionPlan{
		MeanInterval: horizon / 4, GroupSize: 2, Recovery: 2, LeadTime: 0.4,
	}}
	warmedBlock(b, churnSeeds, func(seed uint64) {
		ctrl.Reset(seed)
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			FaultHook:       ctrl,
			Control:         ctrl,
			ControlInterval: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// partitionBench partitions n uniform(1, 100) weights, drawn from a fixed
// seed, into m instances.
func partitionBench(b *testing.B, alg scheduling.Partitioner, n, m int) {
	s := rng.New(7)
	items := make([]scheduling.Item, n)
	for i := range items {
		items[i] = scheduling.Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Partition(items, m); err != nil {
			b.Fatal(err)
		}
	}
}
