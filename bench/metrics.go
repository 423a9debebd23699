package main

import "strings"

// metricDef declares one metric. The tables below are the single source of
// the names, units and bounds: BENCHMARK.json is generated from them
// (-manifest) and the smoke test checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only: the module the metric belongs to
	exact  bool    // per-layer only: a count that repeats exactly from run to run
}

// endToEnd are the metrics a user of the system sees; the same set is
// reported for every workload. Timed ones are calibrated (see calib.go).
var endToEnd = []metricDef{
	{name: "job_p50_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "job_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.03},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run. They have no
// bound; they explain a move in an end-to-end metric (README.md has the
// table of which should move which). A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	// Witnesses: the machine and the run, not the program.
	{name: "bench.calib_ms", unit: "ms", better: "lower", layer: "bench"},
	{name: "bench.calib_spread", unit: "ratio", better: "lower", layer: "bench"},
	{name: "bench.raw_job_p50_ms", unit: "ms", better: "lower", layer: "bench"},
	{name: "bench.raw_job_p90_ms", unit: "ms", better: "lower", layer: "bench"},
	{name: "bench.raw_throughput_mb_s", unit: "MB/s", better: "higher", layer: "bench"},
	{name: "bench.gen_lag_p90_ms", unit: "ms", better: "lower", layer: "bench"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower", layer: "bench"},
	{name: "bench.fig6_ratio", unit: "ratio", better: "higher", layer: "bench"},
	{name: "bench.x_plain", unit: "ratio", better: "lower", layer: "bench"},
	{name: "workload.gen_s", unit: "s", better: "lower", layer: "workload"},
	{name: "workload.oracle_s", unit: "s", better: "lower", layer: "workload"},
	{name: "workload.input_mb", unit: "MB", better: "higher", layer: "workload", exact: true},
	{name: "workload.output_pairs", unit: "count", better: "higher", layer: "workload", exact: true},

	// mapred: the three phases sum to the job's wall time; the busy sums
	// are totals over tasks, which run in parallel.
	{name: "mapred.startup_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.map_phase_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.reduce_tail_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.split_read_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.map_user_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.combine_user_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.reduce_user_ms", unit: "ms", better: "lower", layer: "mapred"},
	{name: "mapred.map_tasks", unit: "count", better: "lower", layer: "mapred", exact: true},
	{name: "mapred.failed_attempts", unit: "count", better: "lower", layer: "mapred", exact: true},

	{name: "core.emit_ns_per_pair", unit: "ns", better: "lower", layer: "core"},
	{name: "core.emit_max_ms", unit: "ms", better: "lower", layer: "core"},
	{name: "core.pairs_sent", unit: "count", better: "lower", layer: "core", exact: true},
	{name: "core.pairs_combined", unit: "count", better: "higher", layer: "core"},
	{name: "core.combine_ratio", unit: "ratio", better: "higher", layer: "core"},
	{name: "core.spills", unit: "count", better: "lower", layer: "core"},
	{name: "core.messages_sent", unit: "count", better: "lower", layer: "core"},
	{name: "core.bytes_sent", unit: "bytes", better: "lower", layer: "core", exact: true},
	{name: "core.pairs_received", unit: "count", better: "lower", layer: "core"},
	{name: "core.send_mpairs_s", unit: "Mpairs/s", better: "higher", layer: "core"},
	{name: "core.recv_mb_s", unit: "MB/s", better: "higher", layer: "core"},

	{name: "mpi.chan_rtt_us", unit: "us", better: "lower", layer: "mpi"},
	{name: "mpi.ring_rtt_us", unit: "us", better: "lower", layer: "mpi"},
	{name: "mpi.tcp_rtt_us", unit: "us", better: "lower", layer: "mpi"},
	{name: "mpi.tcp_stream_mb_s", unit: "MB/s", better: "higher", layer: "mpi"},
	{name: "mpi.ringcopy_stream_mb_s", unit: "MB/s", better: "higher", layer: "mpi"},
	{name: "mpi.tcp_world_setup_ms", unit: "ms", better: "lower", layer: "mpi"},
	{name: "mpi.allocs_per_rtt", unit: "count", better: "lower", layer: "mpi"},

	{name: "shuffle.merge_mb_s", unit: "MB/s", better: "higher", layer: "shuffle"},
	{name: "shuffle.validate_mb_s", unit: "MB/s", better: "higher", layer: "shuffle"},
	{name: "shuffle.merge_passes", unit: "count", better: "lower", layer: "shuffle"},

	{name: "kv.append_pair_mb_s", unit: "MB/s", better: "higher", layer: "kv"},
	{name: "kv.read_pair_mb_s", unit: "MB/s", better: "higher", layer: "kv"},

	{name: "bufpool.hit_ratio", unit: "ratio", better: "higher", layer: "bufpool"},
	{name: "bufpool.gets_per_job", unit: "count", better: "lower", layer: "bufpool"},

	{name: "hadooprpc.call_us", unit: "us", better: "lower", layer: "hadooprpc"},
	{name: "hadooprpc.bulk_mb_s", unit: "MB/s", better: "higher", layer: "hadooprpc"},
	{name: "hadooprpc.calls_per_job", unit: "count", better: "lower", layer: "hadooprpc"},

	{name: "jetty.fetch_small_us", unit: "us", better: "lower", layer: "jetty"},
	{name: "jetty.fetch_mb_s", unit: "MB/s", better: "higher", layer: "jetty"},
	{name: "jetty.fetches_per_job", unit: "count", better: "lower", layer: "jetty", exact: true},
	{name: "jetty.fetch_bytes_per_job", unit: "bytes", better: "lower", layer: "jetty", exact: true},

	{name: "hadoop.map_run_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.map_spill_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.reduce_copy_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.reduce_merge_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.reduce_sort_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.reduce_reduce_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.copy_share", unit: "ratio", better: "lower", layer: "hadoop"},
	{name: "hadoop.idle_floor_ms", unit: "ms", better: "lower", layer: "hadoop"},
	{name: "hadoop.reexecutions", unit: "count", better: "lower", layer: "hadoop", exact: true},

	{name: "serve.boot_ms", unit: "ms", better: "lower", layer: "serve"},
	{name: "serve.submit_us", unit: "us", better: "lower", layer: "serve"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower", layer: "serve"},
	{name: "serve.inflight_max", unit: "count", better: "lower", layer: "serve"},
	{name: "serve.rejected", unit: "count", better: "lower", layer: "serve"},
	{name: "serve.rss_mb_per_100_jobs", unit: "MB", better: "lower", layer: "serve"},

	{name: "metrics.observe_ns", unit: "ns", better: "lower", layer: "metrics"},
	{name: "trace.span_ns", unit: "ns", better: "lower", layer: "trace"},
	{name: "obs.emit_ns", unit: "ns", better: "lower", layer: "obs"},
}

// metricUnit looks a metric's unit up; an end-to-end metric's uncalibrated
// twin, printed as raw.<name>, has the metric's unit.
func metricUnit(name string) string {
	name = strings.TrimPrefix(name, "raw.")
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
