// Command mpid-bench runs the committed bench suites:
//
//   - suite "workloads" (the default): the full workload suite — WordCount,
//     TeraSort (uniform and Zipf-skewed keys), inverted index, grep,
//     two-table join, chained multi-round PageRank — each run on the MPI-D
//     engine and the mini-Hadoop engine, gated on byte-identical output
//     before timing, reporting per-workload p50 times and shuffle bytes —
//     written as BENCH_workloads.json.
//
//   - suite "serve": the job-service soak — a swarm of concurrent tenant
//     clients submitting WordCount jobs through mpid-serve's RPC
//     front-end, reporting p50/p99 job latency, backpressure counts and
//     the cross-tenant fairness ratio — written as BENCH_serve.json.
//
//   - suite "shufflebytes": the shuffle-byte-reduction benchmark —
//     WordCount and the inverted index under the three byte-reduction
//     mechanisms (the hadoop engine's per-tracker NodeCombine stage, the
//     MPI-D shared NodeArena, and the coded-shuffle prototype at
//     replication r=1..3), each gated on byte-identical output and
//     reporting shipped bytes, the lower-is-better bytes ratio against
//     its in-family baseline, and p50 times — written as
//     BENCH_shufflebytes.json.
//
//   - suite "transport": the transport raw-speed sweep — the in-process
//     chan baseline, the shared-memory-style ring and loopback TCP, each
//     gated on byte-identical WordCount output first, then swept across
//     message sizes for one-way latency percentiles, streaming bandwidth
//     and allocations per round trip — written as BENCH_transport.json.
//
//     mpid-bench -o BENCH_workloads.json                      full workload suite
//     mpid-bench -suite serve -o BENCH_serve.json             full job-service soak
//     mpid-bench -suite shufflebytes -o BENCH_shufflebytes.json  full shuffle-byte baseline
//     mpid-bench -suite transport -o BENCH_transport.json     full transport sweep
//     mpid-bench -smoke -o /tmp/bench.json                    seconds-scale CI smoke run
//     mpid-bench -check                                       regression gate vs committed baselines
//
// -check re-runs every suite's smoke configuration and compares the
// scale-free headline ratios (speedups, fairness ratio) against the
// committed BENCH_*.json files in -dir, failing if any drifts beyond
// -tolerance (default 50% — smoke-scale runs on shared CI hardware are a
// smoke detector for "the optimization stopped working", not a precision
// benchmark). Suites without a committed baseline are skipped.
//
// Flags override individual workload knobs (serve: -tenants, -jobs,
// -slots, -queue, -size, -seed; workloads: -mappers, -rounds, -reps;
// shufflebytes: -mappers, -reps; transport: -reps, -seed). Each suite
// validates output equality before timing anything, prints its summary
// table to stdout, and exits non-zero if the run fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ict-repro/mpid/internal/experiments"
)

func main() {
	suite := flag.String("suite", "workloads", "benchmark suite: workloads | serve | shufflebytes | transport")
	out := flag.String("o", "", "write the result JSON to this file (e.g. BENCH_workloads.json)")
	smoke := flag.Bool("smoke", false, "use the seconds-scale smoke configuration")
	size := flag.Int64("size", 0, "serve: per-job input size in bytes")
	tenants := flag.Int("tenants", 0, "serve: submitting tenants")
	jobs := flag.Int("jobs", 0, "serve: jobs per tenant")
	slots := flag.Int("slots", 0, "serve: concurrent-job slots")
	queue := flag.Int("queue", 0, "serve: admission queue depth")
	reps := flag.Int("reps", 0, "override: timed repetitions")
	seed := flag.Int64("seed", 0, "override: workload seed")
	mappers := flag.Int("mappers", 0, "workloads: mapper rank / tracker count")
	rounds := flag.Int("rounds", 0, "workloads: chained PageRank rounds")
	check := flag.Bool("check", false, "regression gate: re-run every suite's smoke config and compare against committed BENCH_*.json baselines")
	tolerance := flag.Float64("tolerance", experiments.DefaultBenchTolerance, "check: relative slack per metric (0.5 = 50%)")
	dir := flag.String("dir", ".", "check: directory holding the BENCH_*.json baselines")
	flag.Parse()

	if *check {
		res, err := experiments.RunBenchCheck(*dir, *tolerance)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderBenchCheck(res))
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	switch *suite {
	case "serve":
		cfg := experiments.DefaultServeBench()
		if *smoke {
			cfg = experiments.SmokeServeBench()
		}
		if *tenants > 0 {
			cfg.Tenants = *tenants
		}
		if *jobs > 0 {
			cfg.JobsPerTenant = *jobs
		}
		if *slots > 0 {
			cfg.Slots = *slots
		}
		if *queue > 0 {
			cfg.QueueDepth = *queue
		}
		if *size > 0 {
			cfg.JobBytes = *size
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		res, err := experiments.RunServeBench(cfg)
		if err != nil {
			fail(err)
		}
		res.Timestamp = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.RenderServeBench(res))
		write(*out, func() ([]byte, error) { return experiments.MarshalServeBench(res) })

	case "workloads":
		cfg := experiments.DefaultWorkloadBench()
		if *smoke {
			cfg = experiments.SmokeWorkloadBench()
		}
		if *mappers > 0 {
			cfg.Mappers = *mappers
		}
		if *rounds > 0 {
			cfg.PageRankRounds = *rounds
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		res, err := experiments.RunWorkloadBench(cfg)
		if err != nil {
			fail(err)
		}
		res.Timestamp = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.RenderWorkloadBench(res))
		write(*out, func() ([]byte, error) { return experiments.MarshalWorkloadBench(res) })

	case "shufflebytes":
		cfg := experiments.DefaultShuffleBytesBench()
		if *smoke {
			cfg = experiments.SmokeShuffleBytesBench()
		}
		if *mappers > 0 {
			cfg.Mappers = *mappers
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		res, err := experiments.RunShuffleBytesBench(cfg)
		if err != nil {
			fail(err)
		}
		res.Timestamp = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.RenderShuffleBytesBench(res))
		write(*out, func() ([]byte, error) { return experiments.MarshalShuffleBytesBench(res) })

	case "transport":
		cfg := experiments.DefaultTransportBench()
		if *smoke {
			cfg = experiments.SmokeTransportBench()
		}
		if *reps > 0 {
			cfg.Reps = *reps
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		res, err := experiments.RunTransportBench(cfg)
		if err != nil {
			fail(err)
		}
		res.Timestamp = time.Now().UTC().Format(time.RFC3339)
		fmt.Print(experiments.RenderTransportBench(res))
		write(*out, func() ([]byte, error) { return experiments.MarshalTransportBench(res) })

	default:
		fail(fmt.Errorf("unknown suite %q (want workloads, serve, shufflebytes or transport)", *suite))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mpid-bench: %v\n", err)
	os.Exit(1)
}

func write(path string, marshal func() ([]byte, error)) {
	if path == "" {
		return
	}
	body, err := marshal()
	if err != nil {
		fail(fmt.Errorf("marshal: %w", err))
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}
