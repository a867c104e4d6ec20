package main

import (
	"fmt"
	"math/rand/v2"

	"nfvchain/internal/model"
	"nfvchain/internal/workload"
)

// Input generation uses the benchmark's own seeded RNG (PCG from
// math/rand/v2), never the program's internal/rng: a change to the
// program's random streams must not change the offered load. Each purpose
// draws from its own stream so adding a draw in one place does not shift
// another.
const (
	streamProblem uint64 = iota + 1
	streamArrivals
	streamMix
	streamSeeds
)

// newRand returns the benchmark RNG for one (seed, purpose) pair.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shape sizes a generated problem.
type shape struct {
	Requests, VNFs, Nodes int
}

// demoShape is the nfvsim -demo problem: 200 requests, 15 VNFs, 10 nodes.
var demoShape = shape{Requests: 200, VNFs: 15, Nodes: 10}

// Parameters of the paper's Section V-A setup, as nfvsim -demo uses them.
const (
	rateMin, rateMax    = 1.0, 100.0
	deliveryProb        = 0.98
	requestsPerInstance = 20
	serviceHeadroom     = 1.25
	capacityMin         = 1000.0
	capacityMax         = 5000.0
	// demandFill scales VNF demands to fill this share of the fleet, as
	// nfvsim -demo does so placement quality is visible.
	demandFill = 0.6
)

// genProblem draws one problem of the given shape. Chains, node capacities
// and per-request rates are random; the rates are then rescaled so their sum
// is exactly Requests × mean(rateMin, rateMax). Problems from different
// seeds therefore differ in structure but offer the same packet load, which
// keeps the simulator's work per op — and so its run time and result size —
// from swinging with the seed.
func genProblem(seed uint64, sh shape) (*model.Problem, error) {
	if sh.VNFs > workload.CatalogSize || sh.VNFs < model.MaxChainLength {
		return nil, fmt.Errorf("perfbench: %d VNFs outside [%d,%d]", sh.VNFs, model.MaxChainLength, workload.CatalogSize)
	}
	r := newRand(seed, streamProblem)
	p := &model.Problem{}
	for i := 0; i < sh.Nodes; i++ {
		capacity := float64(int(capacityMin+r.Float64()*(capacityMax-capacityMin)) + 1)
		id := fmt.Sprintf("node%02d", i)
		p.Nodes = append(p.Nodes, model.Node{ID: model.NodeID(id), Name: id, Capacity: min(capacity, capacityMax)})
	}
	catalog := workload.Catalog()[:sh.VNFs]
	var total float64
	for i := 0; i < sh.Requests; i++ {
		length := 1 + r.IntN(model.MaxChainLength)
		perm := r.Perm(sh.VNFs)
		chain := make([]model.VNFID, length)
		for j := range chain {
			chain[j] = model.VNFID(catalog[perm[j]].Name)
		}
		rate := rateMin + r.Float64()*(rateMax-rateMin)
		total += rate
		p.Requests = append(p.Requests, model.Request{
			ID:           model.RequestID(fmt.Sprintf("req%04d", i)),
			Chain:        chain,
			Rate:         rate,
			DeliveryProb: deliveryProb,
		})
	}
	if total > 0 {
		scale := float64(sh.Requests) * (rateMin + rateMax) / 2 / total
		for i := range p.Requests {
			p.Requests[i].Rate *= scale
		}
	}

	// Size each VNF from the requests using it, as workload.Generate does:
	// M_f = ceil(users/requestsPerInstance), µ_f padded by the headroom.
	users := make(map[model.VNFID]int)
	effective := make(map[model.VNFID]float64)
	for _, req := range p.Requests {
		for _, f := range req.Chain {
			users[f]++
			effective[f] += req.EffectiveRate()
		}
	}
	for _, e := range catalog {
		id := model.VNFID(e.Name)
		instances := max(1, (users[id]+requestsPerInstance-1)/requestsPerInstance)
		mu := max(e.ServiceRate, effective[id]/float64(instances)*serviceHeadroom)
		p.VNFs = append(p.VNFs, model.VNF{
			ID: id, Name: e.Name, Category: e.Category,
			Instances: instances, Demand: e.Demand, ServiceRate: mu,
		})
	}
	if demand := p.TotalDemand(); demand > 0 {
		scale := demandFill * p.TotalCapacity() / demand
		for i := range p.VNFs {
			p.VNFs[i].Demand *= scale
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("perfbench: generated invalid problem: %w", err)
	}
	return p, nil
}

// opSeeds returns n distinct problem seeds for a run, drawn from the
// workload seed.
func opSeeds(seed uint64, n int) []uint64 {
	r := newRand(seed, streamSeeds)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}
