// Package mpid is a from-scratch Go reproduction of "Can MPI Benefit
// Hadoop and MapReduce Applications?" (Lu, Wang, Zha, Xu — ICPP 2011): the
// MPI-D key-value extension to MPI, the substrates it is measured against
// (Hadoop RPC, HTTP-over-Jetty, a mini-HDFS), a MapReduce framework over
// MPI-D, and a calibrated discrete-event simulation stack that regenerates
// every table and figure of the paper's evaluation.
//
// The repository holds two real execution engines that run the same
// mapred.Job:
//
//   - the MPI-D path (internal/mpi → internal/core → internal/mapred):
//     the paper's proposal, runnable — goroutine ranks over in-process or
//     TCP transports, MPI_D_Send/Recv with hash-table buffering, local
//     combining, hash-mod partitioning and realignment into contiguous
//     buffers;
//   - the Hadoop path (internal/hadooprpc + internal/jetty + internal/dfs
//     → internal/hadoop): a miniature but real Hadoop 0.20 — jobtracker
//     heartbeat scheduling, slot-bounded tasktrackers, HTTP shuffle with a
//     pipelined k-way merge engine (internal/shuffle) that overlaps
//     merging and combining with the copy phase.
//
// Around them sit a shared substrate (internal/kv encodings,
// internal/workload generators, and the nil-safe observability trio
// internal/metrics, internal/trace, internal/faults with internal/admin
// as the live endpoint), a deterministic simulation stack (internal/des,
// internal/cluster, internal/netmodel, internal/hadoopsim,
// internal/mpidsim) for the cluster-scale experiments that cannot run on
// one machine, and a harness (internal/experiments, internal/stats,
// bench_test.go, cmd/*) that prints measured values next to the paper's.
//
// Start with README.md for the library tour, ARCHITECTURE.md for the
// package-by-package map and data-flow diagrams, DESIGN.md for the system
// inventory and substitutions, and EXPERIMENTS.md for paper-vs-measured
// results. Runnable entry points are under cmd/ and examples/; the
// fault-tolerance chaos suite runs with `make chaos`, the repository's
// benchmark (bench/, BENCHMARK.json) with `bash bench/run.sh`.
package mpid
