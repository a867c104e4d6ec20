package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// sample is what one measurement window produced.
type sample struct {
	attempted int
	failed    int // errors, refusals, timeouts and failed checks
	badChecks int // failed output checks alone
	firstErr  error
	latMs     []float64 // latency of every op that passed its checks
	bytes     []float64 // result bytes of every op that passed its checks
	good      int       // ops correct (and, under a latency limit, inside it)
	span      float64   // seconds the goodput is taken over: op time, or the open loop's length
}

func (s *sample) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *sample) failCheck(err error) {
	s.badChecks++
	s.fail(err)
}

func (s *sample) ok(lat time.Duration, bytes int) {
	s.latMs = append(s.latMs, float64(lat)/float64(time.Millisecond))
	s.bytes = append(s.bytes, float64(bytes))
	s.good++
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency is the highest percentile with at least ten samples beyond
// it, kept between p90 and p99: the p99 once a run has 1000 samples, and
// the p90 — the slowest sample when there are ten or fewer — in runs too
// short to resolve a deeper tail.
func tailLatency(xs []float64) float64 {
	return percentile(xs, min(0.99, max(0.9, 1-10/float64(len(xs)))))
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1); 0 for no
// values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB returns the process's peak resident set in MB. getrusage
// reports it in KiB on Linux, and, unlike the VmHWM line of
// /proc/self/status, every Linux sandbox provides it.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	if ru.Maxrss <= 0 {
		return 0, fmt.Errorf("peak rss: getrusage reported %d KiB", ru.Maxrss)
	}
	return float64(ru.Maxrss) / 1024, nil
}
