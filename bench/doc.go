// Command bench is the repository's benchmark: four machine-calibrated
// workloads, six end-to-end metrics and a per-layer ladder, defined in
// BENCHMARK.json at the repository root and explained in README.md.
//
//	bash bench/run.sh                      every workload, end to end, each in a child process
//	bash bench/run.sh -trace 1             the separate traced run: per-layer metrics and Chrome traces
//	bash bench/run.sh -workload sort-hadoop -seed 3 -seconds 20 -trace 0
//	                                       one workload in this process, as the driver runs it
//	bash bench/run.sh -aa 6                A/A study: two interleaved sets of six full runs
//	bash bench/run.sh -manifest            print BENCHMARK.json from the tables in metrics.go
//
// Every run prints one line per value, "workload name value unit"; a
// single-workload run ends with one JSON object holding the metrics
// BENCHMARK.json names for that kind of run. The exit code is non-zero when
// any job's output differed from the plain-Go oracle's.
//
// The package is a module of its own (the benchmark builds apart from the
// repository), named inside the parent's import path so that it may drive
// the internal packages' public functions.
package main
