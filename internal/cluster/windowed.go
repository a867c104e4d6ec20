package cluster

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"nfvchain/internal/simulate"
)

// drainChunk bounds how many events a datacenter drains between cancellation
// checks, mirroring the single simulator's polling cadence.
const drainChunk = simulate.CtxCheckInterval

// parallelMinWindowEvents is the smoothed per-window event count below which
// the windowed driver drains datacenters inline instead of fanning out to the
// worker pool: a window that carries only a handful of events costs more in
// goroutine handoff than it saves. A package variable so tests can force the
// pool on for tiny fixtures.
var parallelMinWindowEvents = 1024

// runWindowed advances the composition in conservative windows. Datacenters
// only interact at global arrival instants, so between consecutive arrivals
// every datacenter can drain its own agenda independently:
//
//   - The barrier is the earliest pending global arrival time arrT. Each
//     datacenter a global flow can reach drains inclusively to the barrier —
//     exactly the events an event-at-a-time interleaving would process
//     before routing that arrival (ties at arrT go to datacenter events).
//   - Datacenters no global flow can reach are invisible to every routing
//     decision (a Router reads DCState.Pending only for CanServe
//     datacenters — the documented Router contract), so they drain straight
//     to the horizon in the first window.
//   - When the router is LoadOblivious its decisions never read live load, so
//     a serving datacenter may drain past the barrier up to the earliest time
//     a future arrival could enter it: next[i] for flows homed there, and
//     next[i]+WANLatency for flows that would pay the WAN entry hop. That
//     keeps every injection at or after the datacenter's local clock.
//
// Windows with enough events (a smoothed estimate against
// parallelMinWindowEvents) fan the per-datacenter drains across min(workers,
// active) goroutines; distinct datacenters share no mutable state, so the
// only coordination is an atomic work cursor. Routing and injection always
// happen on the caller's goroutine at the deterministic barrier, so results
// are bit-identical for every worker count. workers <= 1 drains inline.
func (c *ClusterSimulator) runWindowed(ctx context.Context, workers int) error {
	n := len(c.sims)
	if workers > n {
		workers = n
	}

	// An inline drain never yields, so a short run could finish before the
	// watcher below observes a context that was cancelled up front.
	if err := ctx.Err(); err != nil {
		return err
	}
	// A context watcher translates cancellation into a flag the drain loops
	// can poll without channel operations on the hot path.
	var stop atomic.Bool
	if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-finished:
			}
		}()
	}

	oblivious := false
	if lo, ok := c.router.(LoadOblivious); ok {
		oblivious = lo.LoadOblivious()
	}
	servesGlobal := make([]bool, n)
	for i := range c.canServe {
		for d, ok := range c.canServe[i] {
			if ok {
				servesGlobal[d] = true
			}
		}
	}

	limits := make([]float64, n)
	active := make([]int32, 0, n)
	winEW := 0 // smoothed events-per-window estimate
	for {
		// Barrier: the earliest pending global arrival (+Inf when none
		// remain, which makes the last window drain everything).
		minA, arrT := -1, math.Inf(1)
		for i, t := range c.next {
			if t < arrT {
				minA, arrT = i, t
			}
		}

		// Per-datacenter drain limits for this window.
		for d := 0; d < n; d++ {
			switch {
			case !servesGlobal[d]:
				limits[d] = math.Inf(1)
			case !oblivious:
				limits[d] = arrT
			default:
				lim := math.Inf(1)
				for i, t := range c.next {
					if !c.canServe[i][d] || math.IsInf(t, 1) {
						continue
					}
					if c.cfg.Global[i].Home != d {
						t += c.cfg.WANLatency
					}
					if t < lim {
						lim = t
					}
				}
				limits[d] = lim
			}
		}
		active = active[:0]
		for d := 0; d < n; d++ {
			if c.times[d] <= limits[d] {
				active = append(active, int32(d))
			}
		}

		total := 0
		if workers > 1 && len(active) >= 2 &&
			(winEW >= parallelMinWindowEvents || math.IsInf(arrT, 1)) {
			total = c.drainParallel(active, limits, workers, &stop)
		} else {
			for _, d := range active {
				total += drainDC(c.sims[d], limits[d], &stop)
				c.times[d] = c.sims[d].PeekNextEventTime()
			}
		}
		winEW = (3*winEW + total) / 4

		if stop.Load() {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if minA < 0 {
			return nil
		}
		c.routeArrival(minA, arrT)
		c.next[minA] = c.nextArrival(minA, arrT, c.res.Horizon)
	}
}

// drainParallel fans the window's active datacenters across min(workers,
// len(active)) goroutines pulling from an atomic cursor. Each datacenter is
// drained by exactly one worker and workers touch no shared simulator state,
// so the fan-out is race-free by construction.
func (c *ClusterSimulator) drainParallel(active []int32, limits []float64, workers int, stop *atomic.Bool) int {
	if workers > len(active) {
		workers = len(active)
	}
	var cursor atomic.Int32
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(active) {
					return
				}
				d := active[i]
				total.Add(int64(drainDC(c.sims[d], limits[d], stop)))
				c.times[d] = c.sims[d].PeekNextEventTime()
			}
		}()
	}
	wg.Wait()
	return int(total.Load())
}

// drainDC drains one datacenter inclusively to t in drainChunk-sized batches,
// checking the stop flag between batches so cancellation interrupts even a
// window holding millions of events.
func drainDC(sim *simulate.Simulator, t float64, stop *atomic.Bool) int {
	total := 0
	for {
		n := sim.DrainUntil(t, drainChunk)
		total += n
		if n < drainChunk || stop.Load() {
			return total
		}
	}
}
