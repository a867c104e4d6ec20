package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/service"
)

// serve-mix: an in-process nfvd on loopback, driven in an open loop. Jobs
// fall due at Poisson arrival times at one fixed rate whatever the server
// does; each is timed from its due time to the last byte of its result at
// the client. The load generator is one process with two goroutines (one
// submits, one polls and fetches) over at most two connections.
const (
	serveRate     = 70.0 // offered jobs per second
	shareRepeat   = 0.10 // exact repeats of an earlier solve: cache hits
	shareRace     = 0.02 // budgeted anytime solves, no deadline
	shareSimulate = 0.08 // short solve+simulate jobs; the rest are solves
	// A repeat copies a solve due between repeatMaxGap and repeatMinGap
	// earlier: long enough ago to have finished, recent enough to still
	// sit in the FIFO cache.
	repeatMinGap = 500 * time.Millisecond
	repeatMaxGap = 2 * time.Second

	serveWorkers = 2   // nfvd worker pool: one per CPU of a 2-CPU host
	serveQueue   = 64  // nfvd queue depth (its default)
	serveCache   = 256 // nfvd cache entries (its default)
	// pollInterval paces the status sweeps (service.Client.PollInterval).
	// The client's 10 ms default is longer than a whole solve.
	pollInterval = time.Millisecond
	jobTimeout   = 10 * time.Second
	// serveLatencyLimit is the limit goodput_ops_s counts a job within.
	serveLatencyLimit = 250 * time.Millisecond
	clientConns       = 2

	simHorizon = 0.5
	simWarmup  = 0.1
)

// racePortfolio is the anytime job's portfolio: iteration budgets only, so
// the result is deterministic and comparable with the library's.
var racePortfolio = []string{"greedy", "sa:iters=20000"}

// mixJob is one job of the mix and, after the run, its outcome. The job
// keeps only its problem seed: the request is generated just before it is
// due and again for its check, so the generator holds no problems in memory
// while the server runs.
type mixJob struct {
	kind   string // solve, repeat, race or simulate
	due    time.Duration
	seed   uint64
	repeat *mixJob // the solve a repeat copies

	id       string
	terminal bool // status polled as done
	late     time.Duration
	submit   [2]time.Time
	fetch    [2]time.Time
	polls    int
	data     []byte
	err      error
}

type serveMix struct {
	dur time.Duration

	jobs []*mixJob
	warm *mixJob

	srv       *service.Server
	hs        *http.Server
	serveDone chan error
	client    *service.Client
}

func newServeMix(dur time.Duration) *serveMix {
	return &serveMix{dur: dur}
}

// setup generates the mix, starts nfvd and runs one warm-up solve.
func (m *serveMix) setup(seed uint64) error {
	m.generate(seed)
	m.srv = service.New(service.Config{Workers: serveWorkers, QueueDepth: serveQueue, CacheEntries: serveCache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	m.hs = &http.Server{Handler: m.srv.Handler()}
	m.serveDone = make(chan error, 1)
	go func() { m.serveDone <- m.hs.Serve(ln) }()
	m.client = service.NewClient("http://" + ln.Addr().String())
	m.client.PollInterval = pollInterval
	m.client.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns,
	}}

	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	start := time.Now()
	m.submit(ctx, m.warm, start)
	for m.warm.err == nil && !m.advance(ctx, m.warm, start) {
		time.Sleep(pollInterval)
	}
	if m.warm.err != nil {
		return fmt.Errorf("serve-mix warm-up: %w", m.warm.err)
	}
	return nil
}

// generate draws the mix: arrival times, job kinds and problem seeds all
// come from the benchmark's RNG.
func (m *serveMix) generate(seed uint64) {
	n := int(serveRate*m.dur.Seconds() + 0.5)
	arrivals := newRand(seed, streamArrivals)
	// n uniform arrivals on the window are a Poisson process conditioned on
	// its count, so every run offers the same number of jobs.
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(arrivals.Float64() * float64(m.dur))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })

	kinds := make([]string, n)
	counts := map[string]int{
		"repeat":   int(float64(n)*shareRepeat + 0.5),
		"race":     int(float64(n)*shareRace + 0.5),
		"simulate": int(float64(n)*shareSimulate + 0.5),
	}
	i := 0
	for _, k := range []string{"repeat", "race", "simulate"} {
		for c := 0; c < counts[k] && i < n; c++ {
			kinds[i] = k
			i++
		}
	}
	for ; i < n; i++ {
		kinds[i] = "solve"
	}
	mix := newRand(seed, streamMix)
	mix.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })

	seeds := opSeeds(seed, n+1)
	m.warm = &mixJob{kind: "solve", seed: seeds[n]}
	m.jobs = make([]*mixJob, n)
	var solves []*mixJob
	for i, kind := range kinds {
		j := &mixJob{kind: kind, due: dues[i], seed: seeds[i]}
		switch kind {
		case "repeat":
			j.repeat = m.pickRepeat(mix, solves, dues[i])
		case "solve":
			solves = append(solves, j)
		}
		m.jobs[i] = j
	}
}

// request generates a job's request: a classic or anytime solve, or a
// solve+simulate. A repeat sends exactly the request of the solve it copies.
func request(j *mixJob) (*service.SolveRequest, *service.SimulateRequest, error) {
	if j.repeat != nil {
		j = j.repeat
	}
	p, err := genProblem(j.seed, demoShape)
	if err != nil {
		return nil, nil, err
	}
	opts := service.SolveOptions{Seed: j.seed, LinkDelay: linkDelay}
	switch j.kind {
	case "race":
		return &service.SolveRequest{Problem: p, Options: opts, Portfolio: racePortfolio}, nil, nil
	case "simulate":
		return nil, &service.SimulateRequest{Problem: p, Options: opts,
			Sim: service.SimOptions{Horizon: simHorizon, Warmup: simWarmup, Seed: j.seed}}, nil
	}
	return &service.SolveRequest{Problem: p, Options: opts}, nil, nil
}

// pickRepeat chooses the solve a repeat due at due copies: one due between
// repeatMaxGap and repeatMinGap earlier, or the warm-up solve when none is.
func (m *serveMix) pickRepeat(r *rand.Rand, solves []*mixJob, due time.Duration) *mixJob {
	lo := sort.Search(len(solves), func(i int) bool { return solves[i].due >= due-repeatMaxGap })
	hi := sort.Search(len(solves), func(i int) bool { return solves[i].due > due-repeatMinGap })
	if hi <= lo {
		return m.warm
	}
	return solves[lo+r.IntN(hi-lo)]
}

// submit generates a job's request, waits until it is due (start + due)
// and posts it.
func (m *serveMix) submit(ctx context.Context, j *mixJob, start time.Time) {
	solve, sim, err := request(j)
	if err != nil {
		j.err = err
		return
	}
	if wait := time.Until(start.Add(j.due)); wait > 0 {
		time.Sleep(wait)
	}
	j.submit[0] = time.Now()
	j.late = j.submit[0].Sub(start) - j.due
	var st *service.JobStatus
	if solve != nil {
		st, err = m.client.Solve(ctx, *solve)
	} else {
		st, err = m.client.Simulate(ctx, *sim)
	}
	j.submit[1] = time.Now()
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	j.id = st.ID
	j.terminal = st.State == service.StateDone
}

// advance polls a submitted job once, fetching its result when it is done.
// It reports whether the job is resolved (fetched or failed).
func (m *serveMix) advance(ctx context.Context, j *mixJob, start time.Time) bool {
	if j.err != nil {
		return true
	}
	if !j.terminal {
		if time.Since(start.Add(j.due)) > jobTimeout {
			j.err = fmt.Errorf("timed out after %v", jobTimeout)
			return true
		}
		st, err := m.client.Job(ctx, j.id)
		j.polls++
		if err != nil {
			j.err = fmt.Errorf("poll: %w", err)
			return true
		}
		switch st.State {
		case service.StateDone:
			j.terminal = true
		case service.StateFailed, service.StateCanceled:
			j.err = fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
			return true
		default:
			return false
		}
	}
	j.fetch[0] = time.Now()
	j.data, j.err = m.client.ResultBytes(ctx, j.id)
	j.fetch[1] = time.Now()
	return true
}

// measure offers the whole mix, then checks every job's output.
func (m *serveMix) measure(_ time.Duration, tr *Tracer, opBase int) (*sample, error) {
	ctx := context.Background()
	submitted := make(chan *mixJob, len(m.jobs)) // sized to the number of sends
	pollerDone := make(chan struct{})
	var peakQueue, rejected429 int
	var busy []float64
	start := time.Now()
	go func() {
		defer close(pollerDone)
		m.poll(ctx, submitted, start, tr != nil, func(met *service.Metrics) {
			busy = append(busy, met.WorkerUtilization)
			peakQueue = max(peakQueue, met.QueueDepth)
		})
	}()
	for _, j := range m.jobs {
		m.submit(ctx, j, start)
		submitted <- j
	}
	close(submitted)
	<-pollerDone
	var end time.Time
	for _, j := range m.jobs {
		if j.fetch[1].After(end) {
			end = j.fetch[1]
		}
	}

	s := &sample{span: end.Sub(start).Seconds()}
	if tr != nil {
		met, err := m.client.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		lookups := met.Cache.Hits + met.Cache.Misses
		tr.Count("service.cache_hits", float64(met.Cache.Hits))
		tr.Count("service.cache_lookups", float64(lookups))
		tr.Count("service.cache_hit_rate", met.Cache.HitRate)
		tr.Count("service.queue_depth_max", float64(peakQueue))
		tr.Count("service.busy_frac", mean(busy))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		tr.Count("service.heap_live_mb_end", float64(ms.HeapAlloc)/(1<<20))
	}
	var lateMax time.Duration
	for i, j := range m.jobs {
		op := opBase + i
		s.attempted++
		lateMax = max(lateMax, j.late)
		if j.err != nil && strings.Contains(j.err.Error(), ": 429: ") {
			rejected429++
		}
		if j.err == nil {
			j.err = m.check(tr, op, j)
			if j.err != nil {
				s.failCheck(fmt.Errorf("job %d (%s): %w", i, j.kind, j.err))
				continue
			}
		} else {
			s.fail(fmt.Errorf("job %d (%s): %w", i, j.kind, j.err))
			continue
		}
		due := start.Add(j.due)
		lat := j.fetch[1].Sub(due)
		s.latMs = append(s.latMs, float64(lat)/float64(time.Millisecond))
		s.bytes = append(s.bytes, float64(len(j.data)))
		if lat <= serveLatencyLimit {
			s.good++
		}
		root := tr.Add("op.serve-mix", op, -1, due, j.fetch[1])
		tr.Add("service.submit", op, root, j.submit[0], j.submit[1])
		tr.Add("service.wait", op, root, j.submit[1], j.fetch[0])
		tr.Add("service.fetch", op, root, j.fetch[0], j.fetch[1])
		tr.Count("service.polls_per_job", float64(j.polls))
	}
	m.report(start, lateMax)
	tr.Count("service.rejected_429", float64(rejected429))
	tr.Count("loadgen.late_max_ms", float64(lateMax)/float64(time.Millisecond))
	return s, nil
}

// report prints each job kind's latency quantiles to standard error.
func (m *serveMix) report(start time.Time, lateMax time.Duration) {
	byKind := make(map[string][]float64)
	for _, j := range m.jobs {
		if j.err == nil {
			byKind[j.kind] = append(byKind[j.kind], float64(j.fetch[1].Sub(start.Add(j.due)))/float64(time.Millisecond))
		}
	}
	for _, k := range []string{"solve", "repeat", "race", "simulate"} {
		xs := byKind[k]
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix %-8s n=%4d p50 %7.2f ms  p90 %7.2f ms  max %7.2f ms\n",
			k, len(xs), median(xs), percentile(xs, 0.9), percentile(xs, 1))
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix generator lateness max %.2f ms\n", float64(lateMax)/float64(time.Millisecond))
}

// poll is the second load goroutine: it sweeps the in-flight jobs every
// pollInterval until the submitter has closed submitted and every job is
// resolved. With sampleMetrics it also reads /metrics every 100 ms.
func (m *serveMix) poll(ctx context.Context, submitted <-chan *mixJob, start time.Time, sampleMetrics bool, onMetrics func(*service.Metrics)) {
	var inflight []*mixJob
	open := true
	var lastSample time.Time
	for open || len(inflight) > 0 {
		if len(inflight) == 0 {
			j, ok := <-submitted
			if !ok {
				return
			}
			inflight = append(inflight, j)
		}
	drain:
		for open {
			select {
			case j, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				inflight = append(inflight, j)
			default:
				break drain
			}
		}
		kept := inflight[:0]
		for _, j := range inflight {
			if !m.advance(ctx, j, start) {
				kept = append(kept, j)
			}
		}
		inflight = kept
		if sampleMetrics && time.Since(lastSample) >= 100*time.Millisecond {
			lastSample = time.Now()
			if met, err := m.client.Metrics(ctx); err == nil {
				onMetrics(met)
			}
		}
		if len(inflight) > 0 {
			time.Sleep(m.client.PollInterval)
		}
	}
}

// check verifies a served job: the decoded document passes its checks and
// round-trips exactly, and the bytes equal the library's for the same
// request (and, for a repeat, the bytes served for the solve it copies).
func (m *serveMix) check(tr *Tracer, op int, j *mixJob) error {
	if j.repeat != nil && j.repeat.err == nil && j.repeat.data != nil {
		return checkSameBytes("repeat vs first solve", j.data, j.repeat.data)
	}
	// A repeat of a solve that failed is checked against the library like a
	// first solve.
	solve, sim, err := request(j)
	if err != nil {
		return err
	}
	var want []byte
	switch {
	case sim != nil:
		err = timed(tr, "service.compute.simulate", op, -1, func() error {
			sol, err := core.Optimize(sim.Problem, core.Options{Seed: sim.Options.Seed, LinkDelay: sim.Options.LinkDelay})
			if err != nil {
				return err
			}
			res, err := core.Simulate(sol, core.SimulationConfig{Horizon: sim.Sim.Horizon, Warmup: sim.Sim.Warmup, Seed: sim.Sim.Seed})
			if err != nil {
				return err
			}
			want, err = encodeResults(res)
			return err
		})
	case len(solve.Portfolio) > 0:
		err = timed(tr, "service.compute.race", op, -1, func() error {
			sol, _, err := core.SolveRace(context.Background(), solve.Problem, core.RaceOptions{
				Portfolio: solve.Portfolio, Seed: solve.Options.Seed, LinkDelay: solve.Options.LinkDelay,
			})
			if err != nil {
				return err
			}
			want, err = encodeSolution(sol)
			return err
		})
	default:
		err = timed(tr, "service.compute.solve", op, -1, func() error {
			sol, err := optimize(tr, op, -1, solve.Problem, solve.Options.Seed)
			if err != nil {
				return err
			}
			return timed(tr, "core.solution_encode", op, -1, func() (err error) {
				want, err = encodeSolution(sol)
				return err
			})
		})
	}
	if err != nil {
		return err
	}
	if sim != nil {
		res, err := decodeResults(j.data)
		if err != nil {
			return err
		}
		if err := checkResultsDoc(res, j.data); err != nil {
			return err
		}
	} else if err := checkServedSolution(tr, op, j.data); err != nil {
		return err
	}
	return checkSameBytes("served vs library "+j.kind, j.data, want)
}

// checkServedSolution decodes a served Solution (traced as the client's
// decode) and checks it.
func checkServedSolution(tr *Tracer, op int, data []byte) error {
	tr.Count("core.solution_bytes", float64(len(data)))
	var sol *core.Solution
	if err := timed(tr, "core.solution_decode", op, -1, func() (err error) {
		sol, err = decodeSolution(data)
		return err
	}); err != nil {
		return err
	}
	return checkSolutionDoc(sol, data)
}

// raceInputs regenerates the problems of the first k jobs.
func (m *serveMix) raceInputs(k int) ([]*model.Problem, []uint64, error) {
	var problems []*model.Problem
	var seeds []uint64
	for _, j := range m.jobs[:min(k, len(m.jobs))] {
		p, err := genProblem(j.seed, demoShape)
		if err != nil {
			return nil, nil, err
		}
		problems = append(problems, p)
		seeds = append(seeds, j.seed)
	}
	return problems, seeds, nil
}

// close stops nfvd and its listener and waits for both.
func (m *serveMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if m.hs != nil {
		_ = m.hs.Shutdown(ctx) // closes the listener; Serve returns ErrServerClosed
		if err := <-m.serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		m.client.HTTPClient.CloseIdleConnections()
		m.hs = nil
	}
	if m.srv != nil {
		_ = m.srv.Shutdown(ctx) // drains the worker pool; every job has ended
		m.srv = nil
	}
}
