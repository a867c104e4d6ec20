package main

import (
	"bytes"
	"errors"
	"fmt"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// Output checks. Every op runs the ones that apply to it, untimed, after
// its timed part; a failed check counts the op as failed. The workloads run
// without faults, control hooks or bounded buffers, so the only permanent
// packet sink the ledger allows is a discarded buffer drop.

// checkLedger verifies the conservation ledger of one simulation: every
// offered packet is delivered, still in flight, dropped or shed.
func checkLedger(res *simulate.Results) error {
	if res.Generated <= 0 || res.Delivered <= 0 {
		return fmt.Errorf("ledger: generated %d, delivered %d; want both positive", res.Generated, res.Delivered)
	}
	if got := res.Delivered + res.InFlight + res.Dropped + res.FailureDrops + res.Shed; got != res.Generated {
		return fmt.Errorf("ledger: delivered %d + in flight %d + dropped %d + failure drops %d + shed %d = %d, want generated %d",
			res.Delivered, res.InFlight, res.Dropped, res.FailureDrops, res.Shed, got, res.Generated)
	}
	return nil
}

// checkClusterLedger verifies every datacenter's ledger, that the cluster
// totals are their sums, and that every routed global arrival was served
// either at home or across one WAN hop.
func checkClusterLedger(res *cluster.Results) error {
	var gen, del, inflight, dropped, routed int
	for _, dc := range res.Datacenters {
		if err := checkLedger(dc.Results); err != nil {
			return fmt.Errorf("%s: %w", dc.Name, err)
		}
		gen += dc.Results.Generated
		del += dc.Results.Delivered
		inflight += dc.Results.InFlight
		dropped += dc.Results.Dropped
	}
	if gen != res.Generated || del != res.Delivered || inflight != res.InFlight || dropped != res.Dropped {
		return fmt.Errorf("cluster ledger: totals (%d,%d,%d,%d) differ from datacenter sums (%d,%d,%d,%d)",
			res.Generated, res.Delivered, res.InFlight, res.Dropped, gen, del, inflight, dropped)
	}
	for _, n := range res.RoutedByDC {
		routed += n
	}
	if routed != res.RoutedLocal+res.WANHops {
		return fmt.Errorf("cluster ledger: %d routed global arrivals, but %d local + %d WAN hops", routed, res.RoutedLocal, res.WANHops)
	}
	return nil
}

// checkSolution verifies placement feasibility and that the schedule covers
// every admitted request's whole chain while rejected requests hold no
// assignment.
func checkSolution(sol *core.Solution) error {
	p := sol.Problem
	if err := sol.Placement.Validate(p); err != nil {
		return fmt.Errorf("placement infeasible: %w", err)
	}
	if err := sol.Schedule.ValidatePartial(p); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	rejected := make(map[model.RequestID]bool, len(sol.Rejected))
	for _, id := range sol.Rejected {
		rejected[id] = true
	}
	for _, r := range p.Requests {
		assigned := len(sol.Schedule.InstanceOf[r.ID])
		switch {
		case rejected[r.ID] && assigned > 0:
			return fmt.Errorf("schedule: rejected request %s is still assigned", r.ID)
		case !rejected[r.ID] && assigned != len(r.Chain):
			return fmt.Errorf("schedule: admitted request %s covers %d of %d chain stages", r.ID, assigned, len(r.Chain))
		}
	}
	if len(rejected) != len(sol.Rejected) {
		return errors.New("schedule: duplicate rejected request")
	}
	return nil
}

// encodeSolution renders a solution as its wire JSON.
func encodeSolution(sol *core.Solution) ([]byte, error) {
	var buf bytes.Buffer
	if err := sol.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeResults renders simulation results as their wire JSON.
func encodeResults(res *simulate.Results) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSolution(data []byte) (*core.Solution, error) {
	return core.ReadSolutionJSON(bytes.NewReader(data))
}

func decodeResults(data []byte) (*simulate.Results, error) {
	return simulate.ReadResultsJSON(bytes.NewReader(data))
}

// checkSolutionDoc checks a solution decoded from data and verifies the
// exact round trip: re-encoding the decoded value reproduces the bytes.
func checkSolutionDoc(sol *core.Solution, data []byte) error {
	if err := checkSolution(sol); err != nil {
		return err
	}
	again, err := encodeSolution(sol)
	if err != nil {
		return err
	}
	return checkSameBytes("solution JSON round trip", again, data)
}

// checkResultsDoc checks the ledger of results decoded from data and
// verifies the exact round trip.
func checkResultsDoc(res *simulate.Results, data []byte) error {
	if err := checkLedger(res); err != nil {
		return err
	}
	again, err := encodeResults(res)
	if err != nil {
		return err
	}
	return checkSameBytes("results JSON round trip", again, data)
}

// checkSameBytes verifies that two renderings of one document are
// byte-identical (a round trip, or served bytes against library bytes).
func checkSameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the expected %d bytes", what, len(got), len(want))
	}
	return nil
}
