package main

import "nfvchain/internal/portfolio"

// The per-layer metrics of a traced run, in the order of README.md's
// layer → metric map. A metric named after a span is that span's median
// duration; the others are the median of counts recorded where the work
// happens.

type layerMetric struct {
	name string
	unit string
	span string // the span timed, or "" for a count recorded under name
}

func perLayer() []layerMetric {
	ms := func(name, span string) layerMetric { return layerMetric{name: name, unit: "ms", span: span} }
	count := func(name, unit string) layerMetric { return layerMetric{name: name, unit: unit} }
	out := []layerMetric{
		ms("placement.bfdsu_ms", "placement.bfdsu"),
		count("placement.iterations", "count"),
		ms("scheduling.rckk_ms", "scheduling.rckk"),
		ms("scheduling.admission_ms", "scheduling.admission"),
		count("scheduling.rejected", "count"),
		ms("core.evaluate_ms", "core.evaluate"),
		ms("core.solution_encode_ms", "core.solution_encode"),
		ms("core.solution_decode_ms", "core.solution_decode"),
		count("core.solution_bytes", "B"),

		ms("simulate.reset_ms", "simulate.reset"),
		ms("simulate.run_ms", "simulate.run"),
		count("simulate.pkts_per_s", "pkt/s"),
		count("simulate.generated", "count"),
		count("simulate.delivered", "count"),
		count("simulate.samples", "count"),
		ms("simulate.encode_ms", "simulate.encode"),
		ms("simulate.decode_ms", "simulate.decode"),
		count("simulate.result_bytes", "B"),

		ms("cluster.optimize_ms", "cluster.optimize"),
		ms("cluster.run_ms.w0", "cluster.run.w0"),
		ms("cluster.run_ms.w1", "cluster.run.w1"),
		ms("cluster.run_ms.w2", "cluster.run.w2"),
		ms("cluster.region_sim_ms", "cluster.region_sim"),
		count("cluster.wan_hops", "count"),
		count("cluster.truncated", "count"),
	}
	for _, text := range portfolio.DefaultPortfolio() {
		out = append(out,
			ms("portfolio."+text+"_ms", "portfolio."+text),
			count("portfolio."+text+".iters_per_s", "iter/s"))
	}
	out = append(out,
		ms("service.submit_ms", "service.submit"),
		ms("service.wait_ms", "service.wait"),
		ms("service.fetch_ms", "service.fetch"),
		count("service.polls_per_job", "count"),
		count("service.cache_hit_rate", "frac"),
		count("service.cache_hits", "count"),
		count("service.cache_lookups", "count"),
		count("service.busy_frac", "frac"),
		count("service.queue_depth_max", "count"),
		count("service.rejected_429", "count"),
		count("service.heap_live_mb_end", "MB"),
		ms("service.compute_ms.solve", "service.compute.solve"),
		ms("service.compute_ms.race", "service.compute.race"),
		ms("service.compute_ms.simulate", "service.compute.simulate"),

		count("loadgen.late_max_ms", "ms"),
		count("bench.trace_overhead_frac", "frac"),
	)
	return out
}
