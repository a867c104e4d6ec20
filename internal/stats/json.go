package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// summaryJSON is the stable wire form of a Summary. The internal Welford
// state (n, mean, m2, min, max) is carried verbatim so a round trip is
// exact: Merge, Variance and CI95 on a decoded Summary behave bit-for-bit
// like on the original.
type summaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON encodes the summary's Welford state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
}

// UnmarshalJSON decodes a summary written by MarshalJSON. Unknown fields are
// rejected so wire-format drift fails loudly instead of silently zeroing
// moments.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var raw summaryJSON
	if err := strictUnmarshal(data, &raw); err != nil {
		return fmt.Errorf("stats: decode summary: %w", err)
	}
	if raw.N < 0 {
		return fmt.Errorf("stats: decode summary: negative n %d", raw.N)
	}
	s.n, s.mean, s.m2, s.min, s.max = raw.N, raw.Mean, raw.M2, raw.Min, raw.Max
	return nil
}

// strictUnmarshal is json.Unmarshal with DisallowUnknownFields.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sketchJSON is the wire form of a Sketch: the underflow and overflow
// counts plus the non-empty span of buckets, Counts[0] being bucket Offset.
// The span is canonical (empty, with Offset 0, or starting and ending on a
// non-zero bucket), so a round trip reproduces the bytes exactly.
type sketchJSON struct {
	Zero     int   `json:"zero"`
	Overflow int   `json:"overflow"`
	Offset   int   `json:"offset"`
	Counts   []int `json:"counts"`
}

// MarshalJSON encodes the sketch's non-empty bucket span.
func (s Sketch) MarshalJSON() ([]byte, error) {
	raw := sketchJSON{Zero: s.zero, Overflow: s.overflow, Counts: []int{}}
	lo, hi := 0, len(s.counts)-1
	for lo <= hi && s.counts[lo] == 0 {
		lo++
	}
	for hi >= lo && s.counts[hi] == 0 {
		hi--
	}
	if lo <= hi {
		raw.Offset = lo + sketchMinIndex
		raw.Counts = s.counts[lo : hi+1]
	}
	return json.Marshal(raw)
}

// UnmarshalJSON decodes a sketch written by MarshalJSON. It rejects unknown
// fields, negative counts, a span outside the fixed bucket range, a
// non-canonical span and a total count that overflows int; it never
// allocates beyond the input's own size.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var raw sketchJSON
	if err := strictUnmarshal(data, &raw); err != nil {
		return fmt.Errorf("stats: decode sketch: %w", err)
	}
	var out Sketch
	total := 0
	add := func(c int) error {
		if c < 0 {
			return fmt.Errorf("stats: decode sketch: negative count %d", c)
		}
		if c > math.MaxInt-total {
			return errors.New("stats: decode sketch: total count overflows")
		}
		total += c
		return nil
	}
	if err := add(raw.Zero); err != nil {
		return err
	}
	if err := add(raw.Overflow); err != nil {
		return err
	}
	out.zero, out.overflow = raw.Zero, raw.Overflow
	if n := len(raw.Counts); n == 0 {
		if raw.Offset != 0 {
			return fmt.Errorf("stats: decode sketch: empty span at offset %d", raw.Offset)
		}
	} else {
		if raw.Offset < sketchMinIndex || raw.Offset > sketchMaxIndex || n > sketchMaxIndex-raw.Offset+1 {
			return fmt.Errorf("stats: decode sketch: span [%d, %d+%d) outside [%d, %d]",
				raw.Offset, raw.Offset, n, sketchMinIndex, sketchMaxIndex)
		}
		if raw.Counts[0] == 0 || raw.Counts[n-1] == 0 {
			return errors.New("stats: decode sketch: span has an empty end bucket")
		}
		for i, c := range raw.Counts {
			if err := add(c); err != nil {
				return err
			}
			out.counts[raw.Offset-sketchMinIndex+i] = c
		}
	}
	*s = out
	return nil
}
