package experiment

import (
	"fmt"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/workload"
)

// clusterPolicies are the routing policies compared at every region count.
var clusterPolicies = []cluster.Router{
	cluster.LocalityFirst{},
	cluster.LeastLoaded{},
	cluster.Weighted{},
}

// Cluster scales the paper's single-datacenter pipeline out to a region: a
// generated workload is partitioned across N datacenters (requests dealt
// round-robin, 25% promoted to cluster-level global flows present in every
// region), each region is solved independently with BFDSU+RCKK, and the N
// per-region simulators are composed under one global clock with a fixed
// 5 ms WAN entry hop. Series per routing policy: mean packet latency and the
// fraction of global arrivals the router kept in their home region. Locality-
// first pins latency to the single-DC baseline (zero WAN hops by
// construction); least-loaded and weighted trade WAN hops for balance, so
// their latency carries the hop cost weighted by how often they leave home.
func Cluster(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "cluster",
		Title:  "Region-scale composition: N datacenters under one clock (BFDSU+RCKK, 25% global flows, 5ms WAN hop)",
		XLabel: "datacenters",
		YLabel: "mean packet latency (s) / local-service fraction",
	}
	const (
		horizon    = 20.0
		warmup     = 2.0
		wanLatency = 0.005
		globalFrac = 0.25
	)
	regionCounts := []int{1, 2, 4, 8}

	type polResult struct {
		meanW, localFrac float64
	}
	perPoint, err := forEachPointTrial(len(regionCounts), cfg.PlacementTrials,
		func(point, trial int) ([3]polResult, error) {
			var out [3]polResult
			n := regionCounts[point]
			seed := cfg.Seed + uint64(trial)*2654435761
			wcfg := workload.DefaultConfig()
			wcfg.Seed = seed
			wcfg.NumVNFs = 8
			wcfg.NumRequests = 16 * n // keep per-region load constant as N grows
			wcfg.NumNodes = 6
			wcfg.RateMax = 40
			prob, err := workload.Generate(wcfg)
			if err != nil {
				return out, fmt.Errorf("cluster: %w", err)
			}
			cs, err := core.OptimizeCluster(prob, core.ClusterOptions{
				Datacenters:    n,
				GlobalFraction: globalFrac,
				Options:        core.Options{Seed: seed, LinkDelay: 0.001},
			})
			if err != nil {
				return out, fmt.Errorf("cluster: %w", err)
			}
			for pi, pol := range clusterPolicies {
				res, err := core.SimulateCluster(cs, core.ClusterSimConfig{
					Sim: core.SimulationConfig{
						Horizon: horizon,
						Warmup:  warmup,
						Seed:    seed,
					},
					WANLatency: wanLatency,
					Router:     pol,
					Seed:       seed,
				})
				if err != nil {
					return out, fmt.Errorf("cluster: %s: %w", pol.Name(), err)
				}
				local := 1.0
				if routed := res.RoutedLocal + res.WANHops; routed > 0 {
					local = float64(res.RoutedLocal) / float64(routed)
				}
				out[pi] = polResult{meanW: res.Latency.Mean(), localFrac: local}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	for pi, n := range regionCounts {
		for mi, pol := range clusterPolicies {
			var meanW, local float64
			for _, tr := range perPoint[pi] {
				meanW += tr[mi].meanW
				local += tr[mi].localFrac
			}
			trials := float64(len(perPoint[pi]))
			t.AddPoint("mean latency ("+pol.Name()+")", float64(n), meanW/trials)
			t.AddPoint("local fraction ("+pol.Name()+")", float64(n), local/trials)
		}
	}

	t.Note("per-region load is held constant (16 requests/region); X scales the fleet, not the pressure")
	t.Note("locality-first never pays the %.0fms WAN hop; the gap to least-loaded/weighted is the hop cost times their off-home fraction", wanLatency*1e3)
	return t, nil
}
