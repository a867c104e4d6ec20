package cluster

import (
	"math"
	"testing"
)

// runOracle is the event-at-a-time definition of the cluster composition,
// the reference the windowed driver is checked against. Each step scans
// every datacenter's next event time and every global flow's next arrival
// and processes the earliest occurrence. A datacenter event wins a tie
// against an arrival (an arrival injected at t enters after the events
// already scheduled at t, matching the simulator's FIFO order) and the lower
// index wins among equals.
func runOracle(t *testing.T, cfg Config) *Results {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.ran = true
	for d, sim := range c.sims {
		c.times[d] = sim.PeekNextEventTime()
	}
	for {
		minDC, minT := -1, math.Inf(1)
		for d, tm := range c.times {
			if tm < minT {
				minDC, minT = d, tm
			}
		}
		minA, arrT := -1, math.Inf(1)
		for i, tm := range c.next {
			if tm < arrT {
				minA, arrT = i, tm
			}
		}
		switch {
		case minA >= 0 && arrT < minT:
			c.routeArrival(minA, arrT)
			c.next[minA] = c.nextArrival(minA, arrT, c.res.Horizon)
		case minDC >= 0:
			c.sims[minDC].ProcessNextEvent()
			c.times[minDC] = c.sims[minDC].PeekNextEventTime()
		default:
			res, err := c.finalizeAll()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
}

// runCluster builds cfg and runs it through the production driver.
func runCluster(t *testing.T, cfg Config) *Results {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResults reports every way got differs from the oracle's want: each
// datacenter's fingerprint and shed count, the cluster-wide counters and
// latency sketch, and the per-datacenter routing counts.
func sameResults(t *testing.T, got, want *Results) {
	t.Helper()
	for d := range want.Datacenters {
		fw := fingerprint(want.Datacenters[d].Results)
		fg := fingerprint(got.Datacenters[d].Results)
		if fw != fg {
			t.Errorf("datacenter %d fingerprint = %#x, want oracle %#x", d, fg, fw)
		}
		if g, w := got.Datacenters[d].Results.Shed, want.Datacenters[d].Results.Shed; g != w {
			t.Errorf("datacenter %d shed = %d, want %d", d, g, w)
		}
	}
	if got.Generated != want.Generated || got.Delivered != want.Delivered ||
		got.WANHops != want.WANHops || got.RoutedLocal != want.RoutedLocal ||
		got.Rejected != want.Rejected || got.Truncated != want.Truncated {
		t.Errorf("aggregates diverged: got generated %d delivered %d WAN %d local %d rejected %d truncated %d, "+
			"want %d %d %d %d %d %d", got.Generated, got.Delivered, got.WANHops, got.RoutedLocal, got.Rejected, got.Truncated,
			want.Generated, want.Delivered, want.WANHops, want.RoutedLocal, want.Rejected, want.Truncated)
	}
	if got.LatencySketch != want.LatencySketch || got.LatencySketch.Count() != got.Latency.N() {
		t.Errorf("cluster latency sketch diverged: %d of %d latencies, oracle %d",
			got.LatencySketch.Count(), got.Latency.N(), want.LatencySketch.Count())
	}
	for d := range want.RoutedByDC {
		if got.RoutedByDC[d] != want.RoutedByDC[d] {
			t.Errorf("RoutedByDC[%d] = %d, want %d", d, got.RoutedByDC[d], want.RoutedByDC[d])
		}
	}
}
