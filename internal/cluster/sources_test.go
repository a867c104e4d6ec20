package cluster

import (
	"fmt"
	"testing"

	"nfvchain/internal/rng"
	"nfvchain/internal/workload"
)

// TestClusterSourceMatchesRate pins the GlobalRequest.Source seam: a custom
// Poisson source on the same derived stream the driver would use for Rate
// must reproduce the Rate-driven oracle run bit for bit, under the cluster
// driver at every worker count.
func TestClusterSourceMatchesRate(t *testing.T) {
	fixture := func(workers int, useSource bool) Config {
		cfg := clusterFixture(t, 3, 0.25, LeastLoaded{}, 30)
		cfg.Workers = workers
		if useSource {
			g := &cfg.Global[0]
			g.Source = workload.NewPoisson(g.Rate, rng.Derive(cfg.Seed, "cluster/arrivals/"+string(g.ID)))
			g.Rate = 0 // Rate must be ignored (and not validated) with a Source
		}
		return cfg
	}
	want := runOracle(t, fixture(0, false))
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sameResults(t, runCluster(t, fixture(workers, true)), want)
		})
	}
}

// TestClusterBurstySource smoke-tests a genuinely non-Poisson global flow: an
// MMPP source drives cross-datacenter arrivals and the run still satisfies
// the routing accounting invariants.
func TestClusterBurstySource(t *testing.T) {
	cfg := clusterFixture(t, 2, 0.1, LeastLoaded{}, 0)
	g := &cfg.Global[0]
	g.Rate = 0
	g.Source = workload.NewMMPP(150, 1, 4, rng.Derive(cfg.Seed, "bursty"))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, n := range res.RoutedByDC {
		routed += n
	}
	if routed == 0 {
		t.Fatal("bursty source produced no routed arrivals")
	}
	if res.WANHops+res.RoutedLocal != routed {
		t.Errorf("WANHops %d + RoutedLocal %d != routed %d", res.WANHops, res.RoutedLocal, routed)
	}
}

// TestClusterSourceValidation keeps Rate validation for sourceless flows and
// drops it for sourced ones; an exhausted source retires the flow cleanly.
func TestClusterSourceValidation(t *testing.T) {
	cfg := clusterFixture(t, 2, 0, nil, 0) // rate 0 and no source: invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("rate 0 without a source accepted")
	}
	cfg.Global[0].Source = emptySource{}
	c, err := New(cfg) // rate 0 with a source: valid
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, n := range res.RoutedByDC {
		routed += n
	}
	if routed != 0 {
		t.Errorf("exhausted source routed %d arrivals", routed)
	}
	if res.Generated == 0 {
		t.Error("local traffic vanished with an exhausted global source")
	}
}

// emptySource is an immediately exhausted arrival source.
type emptySource struct{}

func (emptySource) Next(after float64) (float64, bool) { return 0, false }
