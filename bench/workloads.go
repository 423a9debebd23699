package main

import (
	"context"
	"fmt"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// Every workload runs 2 mappers (or 2 tasktrackers) and 2 reducers, the
// default 2 ms heartbeat, and shares one buffer pool across its jobs.
const (
	nMappers  = 2
	nReducers = 2
)

// Input sizes. They are chosen so that one job takes 100-200 ms on the
// nominal machine: long enough that data movement, not goroutine start-up,
// is what is timed, short enough that a run collects more than 100 jobs.
const (
	wcBytes      = 8 << 20
	wcSplit      = 256 << 10
	sortRecords  = 100_000
	sortSplits   = 16
	serveBytes   = 512 << 10
	serveSplit   = 64 << 10
	serveRate    = 12 // jobs per second, paced
	serveSlots   = 4
	serveQueue   = 64
	serveLimitMs = 250.0 // calibrated latency limit a served job must meet
)

// engineFunc runs one job through an engine's public entry point. The report
// is nil for the MPI-D engine, which has none.
type engineFunc func(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error)

func runChan(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error) {
	res, err := mapred.Run(job, splits, nMappers)
	return res, nil, err
}

func runTCP(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error) {
	res, err := mapred.RunOnWorld(job, splits, nMappers, newTCPWorld)
	return res, nil, err
}

func newTCPWorld(n int) (*mpi.World, error) { return mpi.NewTCPWorldOptions(n, mpi.TCPOptions{}) }

func runHadoop(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error) {
	return hadoop.RunWithReportContext(context.Background(), job, splits, hadoop.Config{NumTrackers: nMappers})
}

// spec is one workload of the benchmark.
type spec struct {
	name string
	why  string
	loop string // "closed, 1 client" or "open, <rate>/s paced"
	// inputBytes is the size of one job's generated input.
	inputBytes int64
	// params builds the generator parameters from the run's seed.
	params func(seed int64) map[string]int64
	build  func(params map[string]int64) (mapred.Job, []mapred.Split, error)
	// engine is the closed-loop job call; nil for the open-loop workload,
	// whose jobs go through the service's RPC front-end.
	engine engineFunc
	// sort marks the two TeraSort workloads, hadoop the two whose jobs run
	// on the mini-Hadoop engine: which extra per-layer values apply.
	sort, hadoop bool
}

func sortParams(seed int64) map[string]int64 {
	return map[string]int64{"records": sortRecords, "splits": sortSplits, "reducers": nReducers, "seed": seed}
}

var specs = []spec{
	{
		name:       "wc-mpid-chan",
		why:        "8 MiB Zipf WordCount, combiner on, chan transport: core Send (arena hash, incremental combine) and the mapper do the work; mpi, shuffle, kv idle. The paper's Fig. 6 job",
		loop:       "closed, 1 client",
		inputBytes: wcBytes,
		params: func(seed int64) map[string]int64 {
			return map[string]int64{"bytes": wcBytes, "split": wcSplit, "reducers": nReducers, "seed": seed}
		},
		build:  wordCount,
		engine: runChan,
	},
	{
		name:       "sort-mpid-tcp",
		why:        "TeraSort 100000 x 100 B, no combiner, per-job loopback TCP world: every byte spilled, realigned, framed, stream-merged; core spill, mpi tcp, shuffle, kv dominate",
		loop:       "closed, 1 client",
		inputBytes: sortRecords * 100,
		params:     sortParams,
		build:      workload.TeraSort,
		engine:     runTCP,
		sort:       true,
	},
	{
		name:       "sort-hadoop",
		why:        "same TeraSort input on the mini-Hadoop engine: RPC heartbeats, HTTP pull, pipelined merger; mpi, core idle; shares shuffle, kv, bufpool with sort-mpid-tcp but pulls",
		loop:       "closed, 1 client",
		inputBytes: sortRecords * 100,
		params:     sortParams,
		build:      workload.TeraSort,
		engine:     runHadoop,
		sort:       true,
		hadoop:     true,
	},
	{
		name:       "serve-open",
		why:        "512 KiB WordCount jobs over hadooprpc to the job service: latency is cluster boot per job, admission, RPC, heartbeat floor; jobs overlap, so freed CPU shortens the tail",
		loop:       fmt.Sprintf("open, %d/s paced, 2 tenants", serveRate),
		inputBytes: serveBytes,
		params: func(seed int64) map[string]int64 {
			return map[string]int64{"bytes": serveBytes, "split": serveSplit, "reducers": nReducers, "seed": seed}
		},
		build:  wordCount,
		hadoop: true,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// prepared is one workload's generated input and oracle for one seed.
type prepared struct {
	spec    *spec
	params  map[string]int64
	job     mapred.Job
	splits  []mapred.Split
	inputMB float64
	genS    float64
	oracle  oracle
}

// prepare generates the workload's input from the seed and computes the
// oracle with the plain reference. Neither is part of any timed metric.
func prepare(s *spec, seed int64) (*prepared, error) {
	p := &prepared{spec: s, params: s.params(seed), inputMB: float64(s.inputBytes) / 1e6}
	start := time.Now()
	job, splits, err := s.build(p.params)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", s.name, err)
	}
	p.genS = time.Since(start).Seconds()
	p.job, p.splits = job, splits
	if p.oracle, err = plainRun(job, splits); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
	}
	return p, nil
}
