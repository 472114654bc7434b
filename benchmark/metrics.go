package main

// metricDef names one metric of a traced run's result.
type metricDef struct{ name, unit string }

// perLayerMetrics is what a traced run reports, each with the
// end-to-end metric it should move noted beside it. "Rung a − b" is the
// difference of two ladder rungs' median op times.
var perLayerMetrics = []metricDef{
	{"gateway.dial_us", "us"},          // Gateway.Dial, pool on → op_us_p50 @ flows_1hop
	{"gateway.select_us", "us"},        // flows rung gateway_cold − relay → op_us_p50 @ flows_1hop
	{"gateway.listener_us", "us"},      // flows rung listener − gateway_pooled → op_us_p50 @ flows_1hop
	{"gateway.rr_us", "us"},            // rr64 rung listener − relay → op_us_p50 @ rr64_1hop
	{"gateway.us_per_MiB", "us/MiB"},   // bulk rung listener − chain3 → ops_per_s @ bulk_3hop
	{"gateway.pooled_frac", "ratio"},   // pooled ÷ relay dials → the report's op_us_p99 @ flows_1hop
	{"gateway.fallbacks", "count"},     // Stats() → failed @ overlay workloads
	{"gateway.dial_failures", "count"}, // Stats() → failed @ overlay workloads
	{"gateway.allocs_per_op", "allocs/op"},
	{"connpool.saving_us", "us"},      // flows rung gateway_cold − gateway_pooled → op_us_p50 @ flows_1hop
	{"connpool.hit_frac", "ratio"},    // registry hits ÷ checkouts → the report's op_us_p99 @ flows_1hop
	{"connpool.expired", "count"},     // registry
	{"connpool.fill_errors", "count"}, // registry
	{"chain.dial_us.h1", "us"},        // chain.Dial + 16 B echo + Close → op_us_p50 @ probe_mesh
	{"chain.dial_us.h2", "us"},
	{"chain.dial_us.h3", "us"},
	{"chain.hop_us_per_MiB", "us/MiB"}, // (bulk rung chain3 − relay) ÷ 2 → ops_per_s @ bulk_3hop
	{"chain.allocs_per_hop", "allocs/op"},
	{"relay.flow_us", "us"},        // flows rung relay − tcp → op_us_p50 @ flows_1hop
	{"relay.rr_us", "us"},          // rr64 rung relay − pipe → op_us_p50 @ rr64_1hop
	{"relay.us_per_MiB", "us/MiB"}, // bulk rung relay − pipe → ops_per_s @ bulk_3hop
	{"relay.dial_us", "us"},        // flowtrace relay.dial spans → op_us_p50 @ flows_1hop
	{"relay.allocs_per_op", "allocs/op"},
	{"relay.errors", "count"},               // Stats() → failed @ overlay workloads
	{"relay.overloaded", "count"},           // Stats()
	{"pipe.rr_us", "us"},                    // rr64 rung pipe − tcp → op_us_p50 @ rr64_1hop
	{"pipe.us_per_MiB", "us/MiB"},           // bulk rung pipe − tcp → ops_per_s @ bulk_3hop
	{"pipe.vs_splice_us_per_MiB", "us/MiB"}, // bulk rung pipe − kernel_splice
	{"pipe.pool_hit_frac", "ratio"},         // pipe.Stats() hits ÷ gets → cpu_us_per_op
	{"pipe.buffers_outstanding", "count"},   // gets − returns after Close → rss_peak_MB
	{"pathmon.round_us.n4_h1", "us"},        // ProbeRound → op_us_p50 @ probe_mesh
	{"pathmon.round_us.n4_h2", "us"},
	{"pathmon.round_us.n4_h3", "us"},
	{"pathmon.round_us.n16_h1", "us"},
	{"pathmon.round_us.n16_h2", "us"},
	{"pathmon.round_us.n16_h3", "us"},
	{"pathmon.round_us.n64_h1", "us"},
	{"pathmon.round_us.n64_h2", "us"},
	{"pathmon.round_us.n64_h3", "us"},
	{"pathmon.routes_per_round", "count"}, // len(Ranked()) at n16_h3 → ops_per_s @ probe_mesh
	{"pathmon.ranked_us", "us"},           // Ranked() at n16_h3 → op_us_p50 @ flows_1hop
	{"pathmon.probe_fail_frac", "ratio"},  // failed ÷ probes → failed @ probe_mesh
	{"measure.probe_rtt_us", "us"},        // ProbeRTTContext, 4 probes → op_us_p50 @ probe_mesh
	{"topology.generate_ms", "ms"},        // topology.Generate → setup_s @ sim_reallife
	{"topology.bgp_ms", "ms"},             // cold − warm route lookups → cpu_us_per_op @ sim_reallife
	{"topology.route_us", "us"},           // warm lookups per pair → ops_per_s @ sim_reallife
	{"netsim.us_per_run", "us"},           // tcpsim.Run over NetworkPath − StaticPath → ops_per_s @ sim_reallife
	{"tcpsim.run_us", "us"},               // tcpsim.Run over StaticPath → ops_per_s @ sim_reallife
	{"tcpsim.split_us", "us"},             // tcpsim.RunSplit over StaticPath → ops_per_s @ sim_reallife
	{"core.pair_ms", "ms"},                // core.MeasurePair → ops_per_s @ sim_reallife
	{"proc.allocs_per_op", "allocs/op"},   // the named workload's own ops → cpu_us_per_op
	{"proc.alloc_bytes_per_op", "B/op"},
	{"proc.gc_per_s", "1/s"},
	{"proc.leaked_goroutines", "count"}, // after every Close, against the baseline before set-up
	{"proc.leaked_fds", "count"},
	{"trace.overhead_frac", "ratio"}, // 1 − traced ÷ untraced ops_per_s of the named workload
}
