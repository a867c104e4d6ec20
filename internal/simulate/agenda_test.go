package simulate

import (
	"slices"
	"sort"
	"testing"

	"nfvchain/internal/rng"
)

// refAgenda is the agenda's test oracle: a slice kept sorted by (time, seq)
// under the same stamping rules — push stamps the next regular sequence
// number, pushStamped keeps the caller's stamp, startSeqAt reserves the low
// band, and unpop restores a popped event with its stamp intact.
type refAgenda struct {
	seq    uint64
	events []event
}

func (r *refAgenda) startSeqAt(base uint64) {
	if r.seq < base {
		r.seq = base
	}
}

func (r *refAgenda) push(e event) {
	r.seq++
	e.seq = r.seq
	r.insert(e)
}

func (r *refAgenda) insert(e event) {
	i := sort.Search(len(r.events), func(i int) bool { return eventBefore(&e, &r.events[i]) })
	r.events = slices.Insert(r.events, i, e)
}

func (r *refAgenda) pop() (event, bool) {
	if len(r.events) == 0 {
		return event{}, false
	}
	e := r.events[0]
	r.events = r.events[1:]
	return e, true
}

// agendaOp is one step of a scripted agenda workload. A rel op's time is an
// offset from the clock — the time of the last popped event — so offset 0
// hits the due-now FIFO.
type agendaOp struct {
	kind agendaOpKind
	time float64
	rel  bool
}

type agendaOpKind int

const (
	opPush    agendaOpKind = iota // push at time (FIFO when time equals the clock)
	opStamped                     // pushStamped at time with the next low-band row stamp
	opPop                         // pop and compare
	opUnpop                       // unpop the event just popped (skipped unless the last op popped one)
)

// stampBase is the low band reserved for opStamped rows in the differential
// runs, standing in for streamSeqBase.
const stampBase = 1 << 20

// runAgendaOps drives a (reused) agenda and a fresh reference through ops,
// then drains both, failing on the first diverging pop or size.
// When stamped is set, both reserve the low sequence band first, as a trace
// replay does at seeding.
func runAgendaOps(t *testing.T, name string, a *agenda, ops []agendaOp, stamped bool) {
	t.Helper()
	a.reset()
	var ref refAgenda
	if stamped {
		a.startSeqAt(stampBase)
		ref.startSeqAt(stampBase)
	}
	var row uint64
	var last event
	clock := 0.0
	popped := false
	check := func(i int) {
		t.Helper()
		if a.size() != len(ref.events) {
			t.Fatalf("%s op %d: size %d, reference holds %d", name, i, a.size(), len(ref.events))
		}
	}
	for i, op := range ops {
		wasPop := popped
		popped = false
		tm := op.time
		if op.rel {
			tm += clock
		}
		switch op.kind {
		case opPush:
			e := event{time: tm, kind: evArrival, pkt: int32(i)}
			a.push(e)
			ref.push(e)
		case opStamped:
			row++
			e := event{time: tm, seq: row, kind: evStream, reqIndex: int32(i)}
			a.pushStamped(e)
			ref.insert(e)
		case opPop:
			got, ok := a.pop()
			want, wok := ref.pop()
			if ok != wok || got != want {
				t.Fatalf("%s op %d: pop = %+v %v, reference %+v %v", name, i, got, ok, want, wok)
			}
			popped, last = ok, got
			if ok {
				clock = got.time
			}
		case opUnpop:
			if !wasPop {
				continue
			}
			a.unpop(last)
			ref.insert(last)
		}
		check(i)
	}
	for n := 0; ; n++ {
		got, ok := a.pop()
		want, wok := ref.pop()
		if ok != wok || got != want {
			t.Fatalf("%s drain %d: pop = %+v %v, reference %+v %v", name, n, got, ok, want, wok)
		}
		if !ok {
			return
		}
	}
}

// TestAgendaDifferentialRandom drives the heap-backed agenda and the
// sorted-slice reference with identical randomized workloads — duplicate
// timestamps that feed the due-now FIFO, equal-time seq ties, pushes
// interleaved mid-drain (filling the lazy root hole), pushes below
// already-popped times, unpops of the event just popped, and low-band
// stamped pushes — and asserts the two pop bit-identical event sequences.
// The agenda is reused across trials, so post-reset state (FIFO, heap
// array) is exercised too. Scripted edge cases ride along as extra inputs.
func TestAgendaDifferentialRandom(t *testing.T) {
	var a agenda
	// An unpop that ties the two remaining events at the same time must
	// come back first: its seq predates theirs.
	runAgendaOps(t, "unpop-tie", &a, []agendaOp{
		{opPush, 5, false}, {opPush, 5, false}, {opPush, 5, false},
		{opPop, 0, false}, {opUnpop, 0, false}, {opPop, 0, false},
	}, false)
	// A stamped row tying the FIFO's time wins on its low seq.
	runAgendaOps(t, "stamped-tie", &a, []agendaOp{
		{opPush, 2, false}, {opPop, 0, false}, {opPush, 2, false}, {opPush, 2, false},
		{opStamped, 2, false}, {opPop, 0, false}, {opPop, 0, false},
	}, true)

	st := rng.New(42)
	for trial := 0; trial < 60; trial++ {
		stamped := trial%2 == 1
		ops := make([]agendaOp, 0, 3000)
		pending := 0
		for i := 0; i < 3000; i++ {
			if pending > 0 && st.Float64() < 0.45 {
				ops = append(ops, agendaOp{kind: opPop})
				pending--
				if st.Float64() < 0.1 {
					ops = append(ops, agendaOp{kind: opUnpop})
					pending++
				}
				continue
			}
			op := agendaOp{kind: opPush}
			if stamped && st.Float64() < 0.2 {
				op.kind = opStamped
			}
			switch st.IntN(5) {
			case 0:
				op.rel = true // the clock: the due-now FIFO path
			case 1:
				op.time = float64(st.IntN(8)) // coarse grid: heavy cross-push ties
			case 2:
				op.time = st.Float64() * 10 // continuous, possibly below the clock
			case 3:
				op.time, op.rel = st.Float64(), true // near future
			case 4:
				op.time = 5 + st.Float64()*0.001 // dense cluster
			}
			ops = append(ops, op)
			pending++
		}
		runAgendaOps(t, "random", &a, ops, stamped)
	}
}

// TestAgendaDifferentialBulk checks the agenda against the reference under
// populations far above the simulator's usual few hundred pending events —
// a broad uniform spread, a dense cluster, and a zero-spread mass of equal
// timestamps — drained with pushes interleaved, some at the just-popped
// time (the FIFO) and some far ahead.
func TestAgendaDifferentialBulk(t *testing.T) {
	st := rng.New(7)
	var a agenda
	for trial := 0; trial < 4; trial++ {
		var ops []agendaOp
		for i := 0; i < 8000; i++ {
			var tm float64
			switch st.IntN(10) {
			case 0, 1, 2:
				tm = st.Float64() * 1000 // broad uniform spread
			case 3, 4, 5, 6:
				tm = 500 + st.Float64()*0.01 // dense cluster
			default:
				tm = 7.25 // zero-spread mass
			}
			ops = append(ops, agendaOp{kind: opPush, time: tm})
		}
		// Drain 12000 events — more than the 8000 pushed — with pushes
		// interleaved relative to the clock; the runner drains the rest.
		for drained := 1; drained <= 12000; drained++ {
			ops = append(ops, agendaOp{kind: opPop})
			if drained%3 == 0 {
				ops = append(ops, agendaOp{kind: opPush, time: st.Float64() * 100, rel: true})
			}
			if drained%7 == 0 {
				ops = append(ops, agendaOp{kind: opPush, rel: true})
			}
		}
		runAgendaOps(t, "bulk", &a, ops, false)
	}
}

// TestScratchUnpopTieAtTopBoundary pins the unpop contract at a time tie:
// an event popped and unpopped while two later-stamped events wait at the
// same time must pop first again, with its original seq.
func TestScratchUnpopTieAtTopBoundary(t *testing.T) {
	var a agenda
	a.reset()
	// Three events at the same time; seq stamps 1,2,3 assigned by push.
	a.push(event{time: 5})
	a.push(event{time: 5})
	a.push(event{time: 5})
	e1, ok := a.pop()
	if !ok || e1.seq != 1 {
		t.Fatalf("first pop = %+v ok=%v, want seq 1", e1, ok)
	}
	a.unpop(e1)
	e, ok := a.pop()
	if !ok || e.seq != 1 {
		t.Fatalf("pop after unpop = seq %d ok=%v, want seq 1 (time %v)", e.seq, ok, e.time)
	}
}

// TestAgendaGoldenInvariance asserts the heap agenda reproduces every seed
// golden when it is driven event-at-a-time through one Simulator reused
// across the cases: neither the drive loop nor the agenda state a Reset
// retains may be visible to any measurement.
func TestAgendaGoldenInvariance(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"plain", Config{Horizon: 20, Warmup: 2, Seed: 7}, 0x4af579b7b3270177},
		{"buffered", Config{Horizon: 20, Warmup: 2, Seed: 7, BufferSize: 2}, 0x7c13b08e2cdb0988},
		{"lognormal", Config{Horizon: 15, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal}, 0xb81fe93896fa901a},
	}
	var sim Simulator
	step := func(cfg Config) (*Results, error) {
		if err := sim.Reset(cfg); err != nil {
			return nil, err
		}
		for sim.ProcessNextEvent() {
		}
		return sim.Finalize()
	}
	for _, tc := range cases {
		t.Run("heap/"+tc.name, func(t *testing.T) {
			res, err := defaultWorkloadRunWith(t, tc.cfg, step)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintResults(res); got != tc.want {
				t.Errorf("stepped fingerprint = %#x, want golden %#x", got, tc.want)
			}
		})
	}
}
