package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"nfvchain/internal/model"
)

// Arrival is one packet arrival of a request.
type Arrival struct {
	Time    float64 // seconds from trace start
	Request model.RequestID
}

// Trace is a packet-level arrival trace over a finite horizon. It drives
// the discrete-event simulator in trace-driven mode (through Cursor) and can
// be exported/imported as CSV. Arrivals must be in non-decreasing time
// order, ties in replay order; GenerateTrace and ReadTraceCSV both sort, and
// Cursor rejects a row that breaks the order.
type Trace struct {
	Horizon  float64
	Arrivals []Arrival
}

// Cursor returns a forward-only cursor over the trace's arrivals in slice
// order, for replay through simulate.Config.TraceStream. Like TraceStream,
// it stops at the first NaN, negative or decreasing time, and Err names
// that row.
func (t *Trace) Cursor() *TraceCursor {
	return &TraceCursor{arrivals: t.Arrivals}
}

// TraceCursor replays an in-memory Trace one row at a time; it satisfies
// simulate.TraceSource. Build one with Trace.Cursor.
type TraceCursor struct {
	arrivals []Arrival
	i        int
	last     float64
	err      error
}

// NextArrival returns the next row; ok is false at the end of the trace or
// on the first bad row (check Err to tell the two apart).
func (c *TraceCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.err != nil || c.i >= len(c.arrivals) {
		return 0, "", false
	}
	a := c.arrivals[c.i]
	c.i++
	if err := checkRowTime(c.i, a.Time, c.last); err != nil {
		c.err = err
		return 0, "", false
	}
	c.last = a.Time
	return a.Time, a.Request, true
}

// Err reports why the cursor stopped: nil at a clean end, the first row
// error otherwise.
func (c *TraceCursor) Err() error { return c.err }

// checkRowTime validates the time of 1-based data row `row` against the
// previous row's time: replay needs non-negative, non-decreasing times, and
// NaN is neither.
func checkRowTime(row int, tm, last float64) error {
	if math.IsNaN(tm) || tm < 0 {
		return fmt.Errorf("workload: trace row %d: negative or NaN time %v", row, tm)
	}
	if tm < last {
		return fmt.Errorf("workload: trace row %d: time %v decreases below %v (replayed traces must be time-ordered)", row, tm, last)
	}
	return nil
}

// InterArrival selects the inter-arrival time distribution of generated
// traces.
type InterArrival int

// Supported inter-arrival processes. Exponential matches the paper's model
// assumptions; LogNormal reproduces the heavier-tailed flow inter-arrivals
// measured in datacenters (Benson et al.), with the same mean rate.
const (
	InterArrivalExponential InterArrival = iota + 1
	InterArrivalLogNormal
)

// logNormalSigma is the shape parameter of the log-normal inter-arrival
// mode; σ ≈ 1 gives the pronounced burstiness of measured flow traces.
const logNormalSigma = 1.0

// GenerateTrace samples packet arrivals for every request in the problem up
// to the horizon. Each request uses an independent derived stream, so the
// trace for any subset of requests is invariant to the others. It is built
// on TraceSources — the materializing counterpart of streaming the same
// sources through a MergedStream (draw-for-draw identical, so the two paths
// produce byte-identical CSV).
func GenerateTrace(p *model.Problem, horizon float64, dist InterArrival, seed uint64) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: horizon %v must be positive", horizon)
	}
	srcs, err := TraceSources(p, dist, seed)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Horizon: horizon}
	for _, r := range p.Requests {
		src := srcs[r.ID]
		t := 0.0
		for {
			next, ok := src.Next(t)
			if !ok || next >= horizon {
				break
			}
			tr.Arrivals = append(tr.Arrivals, Arrival{Time: next, Request: r.ID})
			t = next
		}
	}
	tr.sort()
	return tr, nil
}

func (t *Trace) sort() {
	sort.SliceStable(t.Arrivals, func(i, j int) bool {
		if t.Arrivals[i].Time != t.Arrivals[j].Time {
			return t.Arrivals[i].Time < t.Arrivals[j].Time
		}
		return t.Arrivals[i].Request < t.Arrivals[j].Request
	})
}

// Len returns the number of arrivals.
func (t *Trace) Len() int { return len(t.Arrivals) }

// Rate returns the empirical mean arrival rate of one request in the trace.
func (t *Trace) Rate(r model.RequestID) float64 {
	if t.Horizon <= 0 {
		return 0
	}
	n := 0
	for _, a := range t.Arrivals {
		if a.Request == r {
			n++
		}
	}
	return float64(n) / t.Horizon
}

// WriteCSV writes the trace as "time,request" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "request"}); err != nil {
		return fmt.Errorf("workload: write trace header: %w", err)
	}
	for _, a := range t.Arrivals {
		rec := []string{strconv.FormatFloat(a.Time, 'g', -1, 64), string(a.Request)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: write trace row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("workload: flush trace: %w", err)
	}
	return nil
}

// ReadTraceCSV parses a trace written by WriteCSV. The horizon is the
// latest arrival time unless every row is empty.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("workload: empty trace file")
	}
	if len(records[0]) != 2 || records[0][0] != "time" || records[0][1] != "request" {
		return nil, fmt.Errorf("workload: bad trace header %v", records[0])
	}
	tr := &Trace{}
	for i, rec := range records[1:] {
		tm, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace row %d: bad time %q: %w", i+1, rec[0], err)
		}
		if tm < 0 {
			return nil, fmt.Errorf("workload: trace row %d: negative time %v", i+1, tm)
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Time: tm, Request: model.RequestID(rec[1])})
		if tm > tr.Horizon {
			tr.Horizon = tm
		}
	}
	tr.sort()
	return tr, nil
}
