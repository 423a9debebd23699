package engine

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

// The workload suite's two-engine equality gates: every workload.Suite spec,
// plus the Zipf-skewed TeraSort, on both engines behind New. CI runs them
// under -race alongside the core equivalence suite.

// suiteCluster sizes both engines: four mapper ranks / four single-slot
// trackers, the heartbeat scaled to suite-default inputs.
var suiteCluster = hadoop.Config{
	NumTrackers: 4, MapSlots: 1, ReduceSlots: 1,
	Heartbeat: 25 * time.Millisecond,
}

// suiteRows names the equality rows: each suite spec with its default
// parameters, and "terasort-skew", the terasort spec with Zipf(1.5) keys —
// the configuration that motivated the sampled range partitioner and the
// stable Pairs sort.
func suiteRows() []string {
	var rows []string
	for _, spec := range workload.Suite() {
		rows = append(rows, spec.Name)
		if spec.Name == "terasort" {
			rows = append(rows, "terasort-skew")
		}
	}
	return rows
}

// buildRow builds one row's job and splits.
func buildRow(t *testing.T, row string) (mapred.Job, []mapred.Split) {
	t.Helper()
	name, skewed := strings.CutSuffix(row, "-skew")
	var params map[string]int64
	if skewed {
		params = map[string]int64{"skew": 150}
	}
	for _, spec := range workload.Suite() {
		if spec.Name == name {
			job, splits, err := spec.Build(params)
			if err != nil {
				t.Fatalf("build %s: %v", row, err)
			}
			return job, splits
		}
	}
	t.Fatalf("no suite spec %q", name)
	return mapred.Job{}, nil
}

// pageRankSplit is the pagerank spec's default split size, which chained
// rounds re-split their state at.
const pageRankSplit = 4 << 10

// runRounds runs the job on the named engine for the given number of rounds,
// each round's canonical output rebuilt into the next round's splits (the
// chained PageRank; every other row runs one round), and returns the last
// round's canonical output and the shuffle bytes summed over rounds.
func runRounds(t *testing.T, name string, job mapred.Job, splits []mapred.Split, rounds int) ([]kv.Pair, int64) {
	t.Helper()
	eng, err := New(name, suiteCluster)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kv.Pair
	var shuffled int64
	for round := 0; round < rounds; round++ {
		res, _, err := eng.Run(context.Background(), job, splits, obs.Telemetry{})
		if err != nil {
			t.Fatalf("%s engine, round %d: %v", name, round, err)
		}
		pairs = res.Pairs()
		shuffled += res.MapCounters.BytesSent
		if round+1 < rounds {
			splits = workload.PageRankNextSplits(pairs, pageRankSplit)
		}
	}
	return pairs, shuffled
}

// pairsEqual compares two canonical outputs byte for byte.
func pairsEqual(a, b []kv.Pair) bool {
	return slices.EqualFunc(a, b, func(p, q kv.Pair) bool {
		return bytes.Equal(p.Key, q.Key) && bytes.Equal(p.Value, q.Value)
	})
}

// TestWorkloadSuiteTwoEngineEquality: every suite row — including the
// Zipf(1.5) skewed-key TeraSort, whose duplicate keys used to flip Pairs()
// ordering between runs, and a three-round chained PageRank — must produce
// byte-identical canonical output on the MPI-D engine and the mini-Hadoop
// engine.
func TestWorkloadSuiteTwoEngineEquality(t *testing.T) {
	for _, row := range suiteRows() {
		t.Run(row, func(t *testing.T) {
			job, splits := buildRow(t, row)
			rounds := 1
			if row == "pagerank" {
				rounds = 3
			}
			want, shuffled := runRounds(t, "mpid", job, splits, rounds)
			if len(want) == 0 {
				t.Fatal("mpid engine produced no output")
			}
			if shuffled == 0 {
				t.Fatal("mpid engine reported zero shuffle bytes")
			}
			got, _ := runRounds(t, "hadoop", job, splits, rounds)
			if !pairsEqual(want, got) {
				t.Fatalf("hadoop output differs (%d vs %d pairs)", len(got), len(want))
			}
		})
	}
}

// TestSkewedTeraSortStressesDuplicates pins the property that makes the
// skewed row a regression test at all: Zipf(1.5) keys must actually
// produce a duplicate-dominated output, or the equality gate above would
// pass vacuously on unique keys.
func TestSkewedTeraSortStressesDuplicates(t *testing.T) {
	job, splits := buildRow(t, "terasort-skew")
	pairs, _ := runRounds(t, "mpid", job, splits, 1)
	dups := 0
	for i := 1; i < len(pairs); i++ {
		if c := kv.Compare(pairs[i-1].Key, pairs[i].Key); c > 0 {
			t.Fatalf("pair %d out of order", i)
		} else if c == 0 {
			dups++
		}
	}
	if dups*5 < len(pairs) {
		t.Fatalf("only %d/%d duplicate-key adjacencies; skew too weak to stress canonicalization", dups, len(pairs))
	}
}

// TestPageRankChainedFixedPointAcrossEngines chains enough PageRank rounds
// to converge, on each engine independently, and asserts (a) every engine
// lands on byte-identical final state and (b) that state is a fixed point:
// rank mass 1 and a vanishing final-round delta.
func TestPageRankChainedFixedPointAcrossEngines(t *testing.T) {
	const rounds = 14
	job, splits := buildRow(t, "pagerank")

	ranks := func(pairs []kv.Pair) map[string]float64 {
		out := make(map[string]float64, len(pairs))
		for _, p := range pairs {
			fields := strings.Fields(string(p.Value))
			r, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad rank in %q: %v", p.Value, err)
			}
			out[fields[0]] = r
		}
		return out
	}

	atN, _ := runRounds(t, "mpid", job, splits, rounds)
	hadoopOut, _ := runRounds(t, "hadoop", job, splits, rounds)
	if !pairsEqual(atN, hadoopOut) {
		t.Fatal("engines disagree on the chained PageRank state")
	}

	var mass float64
	for _, r := range ranks(atN) {
		mass += r
	}
	if math.Abs(mass-1) > 0.02 {
		t.Fatalf("rank mass %f diverged from 1", mass)
	}

	// One more round must move no vertex by more than 1e-6.
	atN1, _ := runRounds(t, "mpid", job, workload.PageRankNextSplits(atN, pageRankSplit), 1)
	prev, next := ranks(atN), ranks(atN1)
	var delta float64
	for v, r := range next {
		if d := math.Abs(r - prev[v]); d > delta {
			delta = d
		}
	}
	if delta > 1e-6 {
		t.Fatalf("not at fixed point: max per-vertex delta %g after %d rounds", delta, rounds)
	}
}
