package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/workload"
)

// WorkloadBench is the workload-suite benchmark behind BENCH_workloads.json:
// every workload in workload.Suite — WordCount, sampled-range-partitioner
// TeraSort (uniform and Zipf-skewed), inverted index, grep, the two-table
// join, and a chained multi-round PageRank — run on both engines (MPI-D,
// mini-Hadoop). Each workload is gated on byte-identical canonical output
// across the engines before a single timing rep runs; a workload whose
// engines disagree fails the whole bench. The timings are per-workload
// p50s, so the committed JSON is comparable across machines with different
// tail noise.

// WorkloadBenchConfig shapes one suite run.
type WorkloadBenchConfig struct {
	// Mappers is the MPI-D mapper rank count (and Hadoop tracker count).
	Mappers int `json:"mappers"`
	// HeartbeatMs is the Hadoop engine's scaled heartbeat.
	HeartbeatMs int `json:"heartbeat_ms"`
	// Reps is how many timed runs each engine gets; p50 is reported.
	Reps int `json:"reps"`
	// PageRankRounds is how many rounds the chained PageRank case runs;
	// each round's output becomes the next round's input in memory.
	PageRankRounds int `json:"pagerank_rounds"`
	// Params holds per-workload parameter overrides, keyed by suite name.
	// Missing workloads (and missing keys) use the suite defaults.
	Params map[string]map[string]int64 `json:"params,omitempty"`
}

// DefaultWorkloadBench is the committed-baseline configuration: inputs
// sized so shuffle and reduce are on the measured path, not just startup.
func DefaultWorkloadBench() WorkloadBenchConfig {
	return WorkloadBenchConfig{
		Mappers: 4, HeartbeatMs: 25, Reps: 5, PageRankRounds: 5,
		Params: map[string]map[string]int64{
			"wordcount": {"bytes": 2 << 20, "split": 64 << 10},
			"terasort":  {"records": 100_000, "splits": 16},
			"invindex":  {"docs": 200, "lines": 60, "split": 16 << 10},
			"grep":      {"bytes": 2 << 20, "split": 64 << 10},
			"join":      {"users": 2_000, "orders": 20_000, "split": 16 << 10},
			"pagerank":  {"vertices": 2_000, "degree": 8, "split": 16 << 10},
		},
	}
}

// SmokeWorkloadBench is a seconds-scale configuration for CI smoke runs:
// suite-default input sizes, two reps, three PageRank rounds.
func SmokeWorkloadBench() WorkloadBenchConfig {
	return WorkloadBenchConfig{Mappers: 4, HeartbeatMs: 25, Reps: 2, PageRankRounds: 3}
}

// WorkloadBenchRow is one workload's measurement.
type WorkloadBenchRow struct {
	// Name is the bench-row name; "terasort-skew" is the terasort spec with
	// Zipf(1.5) keys, every other row matches its suite spec name.
	Name string `json:"name"`
	// OutputPairs is the canonical output size both engines agreed on.
	OutputPairs int `json:"output_pairs"`
	// ShuffleBytes is the map-to-reduce traffic of the MPI-D gate run
	// (summed over rounds for chained PageRank).
	ShuffleBytes int64   `json:"shuffle_bytes"`
	MPIDP50Ms    float64 `json:"mpid_p50_ms"`
	HadoopP50Ms  float64 `json:"hadoop_p50_ms"`
	// SpeedupVsHadoop is HadoopP50Ms / MPIDP50Ms.
	SpeedupVsHadoop float64 `json:"speedup_vs_hadoop"`
}

// WorkloadBenchResult is the full suite measurement, the schema of
// BENCH_workloads.json.
type WorkloadBenchResult struct {
	Config    WorkloadBenchConfig `json:"config"`
	Workloads []WorkloadBenchRow  `json:"workloads"`
	Timestamp string              `json:"timestamp,omitempty"`
}

// benchCase is one bench row: a suite spec plus parameter overrides.
type benchCase struct {
	name   string
	spec   string
	params map[string]int64
}

// benchCases expands the suite into bench rows, adding the skewed-key
// TeraSort row (the configuration that motivated the sampled range
// partitioner and the stable Pairs sort) and applying config overrides.
func benchCases(cfg WorkloadBenchConfig) []benchCase {
	var cases []benchCase
	for _, spec := range workload.Suite() {
		cases = append(cases, benchCase{name: spec.Name, spec: spec.Name, params: cfg.Params[spec.Name]})
		if spec.Name == "terasort" {
			skewed := map[string]int64{"skew": 150}
			for k, v := range cfg.Params[spec.Name] {
				skewed[k] = v
			}
			cases = append(cases, benchCase{name: "terasort-skew", spec: spec.Name, params: skewed})
		}
	}
	return cases
}

// pairsEqual compares two canonical (Result.Pairs) outputs byte for byte.
func pairsEqual(a, b []kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// engineRunner runs one workload case end to end on one engine and returns
// its canonical output plus the shuffle bytes it moved.
type engineRunner func() ([]kv.Pair, int64, error)

// caseRunners builds the two engine runners for a case. PageRank is the
// chained case: every engine runs cfg.PageRankRounds rounds, each round's
// canonical output feeding the next round's splits in memory — the input is
// read exactly once, which is the MPI-D iterative advantage the paper's
// Hadoop baseline cannot express without re-materializing to the DFS.
func caseRunners(c benchCase, cfg WorkloadBenchConfig) (mpid, had engineRunner, err error) {
	var spec *workload.Spec
	suite := workload.Suite()
	for i := range suite {
		if suite[i].Name == c.spec {
			spec = &suite[i]
			break
		}
	}
	if spec == nil {
		return nil, nil, fmt.Errorf("workloadbench: no suite spec %q", c.spec)
	}
	job, splits, err := spec.Build(c.params)
	if err != nil {
		return nil, nil, fmt.Errorf("workloadbench: build %s: %w", c.name, err)
	}
	hcfg := hadoop.Config{
		NumTrackers: cfg.Mappers, MapSlots: 1, ReduceSlots: 1,
		Heartbeat: time.Duration(cfg.HeartbeatMs) * time.Millisecond,
	}

	single := func(eng engine.Engine, j mapred.Job) engineRunner {
		return func() ([]kv.Pair, int64, error) {
			res, _, err := eng.Run(context.Background(), j, splits, engine.Telemetry{})
			if err != nil {
				return nil, 0, err
			}
			return res.Pairs(), res.MapCounters.BytesSent, nil
		}
	}
	// Chained PageRank: same job every round, splits rebuilt from the
	// previous round's canonical output.
	chained := func(eng engine.Engine, j mapred.Job) engineRunner {
		splitBytes := int(workload.Param(c.params, "split", 4<<10))
		return func() ([]kv.Pair, int64, error) {
			cur := splits
			var pairs []kv.Pair
			var shuffled int64
			for round := 0; round < cfg.PageRankRounds; round++ {
				res, _, err := eng.Run(context.Background(), j, cur, engine.Telemetry{})
				if err != nil {
					return nil, 0, fmt.Errorf("round %d: %w", round, err)
				}
				pairs = res.Pairs()
				shuffled += res.MapCounters.BytesSent
				cur = workload.PageRankNextSplits(pairs, splitBytes)
			}
			return pairs, shuffled, nil
		}
	}

	mpidJob := job
	mpidJob.Pool = bufpool.New()

	build := single
	if c.spec == "pagerank" {
		build = chained
	}
	return build(engine.MPID{Mappers: cfg.Mappers}, mpidJob), build(engine.Hadoop{Config: hcfg}, job), nil
}

// RunWorkloadBench runs the full suite: for every case, gate both
// engines on byte-identical canonical output, then time Reps runs per
// engine and report p50s.
func RunWorkloadBench(cfg WorkloadBenchConfig) (*WorkloadBenchResult, error) {
	result := &WorkloadBenchResult{Config: cfg}
	for _, c := range benchCases(cfg) {
		mpid, had, err := caseRunners(c, cfg)
		if err != nil {
			return nil, err
		}

		// Equality gate: nothing is timed until the two engines agree
		// byte for byte on the canonical output.
		want, shuffleBytes, err := mpid()
		if err != nil {
			return nil, fmt.Errorf("workloadbench: %s: mpid engine: %w", c.name, err)
		}
		if len(want) == 0 {
			return nil, fmt.Errorf("workloadbench: %s: mpid engine produced no output", c.name)
		}
		hadoopOut, _, err := had()
		if err != nil {
			return nil, fmt.Errorf("workloadbench: %s: hadoop engine: %w", c.name, err)
		}
		if !pairsEqual(want, hadoopOut) {
			return nil, fmt.Errorf("workloadbench: %s: hadoop output differs from mpid (%d vs %d pairs)", c.name, len(hadoopOut), len(want))
		}

		p50 := func(run engineRunner) (float64, error) {
			var t metrics.Timer
			for i := 0; i < cfg.Reps; i++ {
				start := time.Now()
				if _, _, err := run(); err != nil {
					return 0, err
				}
				t.Observe(float64(time.Since(start).Microseconds()) / 1000)
			}
			return t.Stats().P50, nil
		}
		row := WorkloadBenchRow{Name: c.name, OutputPairs: len(want), ShuffleBytes: shuffleBytes}
		if row.MPIDP50Ms, err = p50(mpid); err != nil {
			return nil, fmt.Errorf("workloadbench: %s: mpid engine: %w", c.name, err)
		}
		if row.HadoopP50Ms, err = p50(had); err != nil {
			return nil, fmt.Errorf("workloadbench: %s: hadoop engine: %w", c.name, err)
		}
		if row.MPIDP50Ms > 0 {
			row.SpeedupVsHadoop = row.HadoopP50Ms / row.MPIDP50Ms
		}
		result.Workloads = append(result.Workloads, row)
	}
	return result, nil
}

// MarshalWorkloadBench renders the result as the BENCH_workloads.json body.
func MarshalWorkloadBench(r *WorkloadBenchResult) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RenderWorkloadBench prints the per-workload table.
func RenderWorkloadBench(r *WorkloadBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload suite (%d mappers, %d reps, p50 ms; gated on byte-identical 2-engine output)\n",
		r.Config.Mappers, r.Config.Reps)
	fmt.Fprintf(&b, "  %-14s %10s %12s %10s %10s %8s\n",
		"workload", "pairs", "shuffle B", "mpid", "hadoop", "vs had")
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "  %-14s %10d %12d %10.1f %10.1f %7.2fx\n",
			w.Name, w.OutputPairs, w.ShuffleBytes, w.MPIDP50Ms, w.HadoopP50Ms, w.SpeedupVsHadoop)
	}
	return b.String()
}
