package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// TestWorkloadSuiteTwoEngineEquality is the equality gate as a test: every
// bench case — including the Zipf(1.5) skewed-key TeraSort, whose duplicate
// keys used to flip Pairs() ordering between runs — must produce
// byte-identical canonical output on the MPI-D engine and the mini-Hadoop
// engine. CI runs this under -race alongside the core equivalence suite.
func TestWorkloadSuiteTwoEngineEquality(t *testing.T) {
	cfg := SmokeWorkloadBench()
	for _, c := range benchCases(cfg) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mpid, had, err := caseRunners(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, shuffled, err := mpid()
			if err != nil {
				t.Fatalf("mpid engine: %v", err)
			}
			if len(want) == 0 {
				t.Fatal("mpid engine produced no output")
			}
			if shuffled == 0 {
				t.Fatal("mpid engine reported zero shuffle bytes")
			}
			hadoopOut, _, err := had()
			if err != nil {
				t.Fatalf("hadoop engine: %v", err)
			}
			if !pairsEqual(want, hadoopOut) {
				t.Fatalf("hadoop output differs (%d vs %d pairs)", len(hadoopOut), len(want))
			}
		})
	}
}

// TestSkewedTeraSortStressesDuplicates pins the property that makes the
// skewed case a regression test at all: Zipf(1.5) keys must actually
// produce a duplicate-dominated output, or the equality gate above would
// pass vacuously on unique keys.
func TestSkewedTeraSortStressesDuplicates(t *testing.T) {
	cfg := SmokeWorkloadBench()
	for _, c := range benchCases(cfg) {
		if c.name != "terasort-skew" {
			continue
		}
		mpid, _, err := caseRunners(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs, _, err := mpid()
		if err != nil {
			t.Fatal(err)
		}
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
		return
	}
	t.Fatal("no terasort-skew case in the bench")
}

// TestPageRankChainedFixedPointAcrossEngines chains enough PageRank rounds
// to converge, on each engine independently, and asserts (a) every engine
// lands on byte-identical final state and (b) that state is a fixed point:
// rank mass 1 and a vanishing final-round delta.
func TestPageRankChainedFixedPointAcrossEngines(t *testing.T) {
	cfg := SmokeWorkloadBench()
	cfg.PageRankRounds = 14
	var c *benchCase
	for _, bc := range benchCases(cfg) {
		if bc.spec == "pagerank" {
			bc := bc
			c = &bc
			break
		}
	}
	if c == nil {
		t.Fatal("no pagerank case in the bench")
	}

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

	mpid, had, err := caseRunners(*c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	atN, _, err := mpid()
	if err != nil {
		t.Fatal(err)
	}
	hadoopOut, _, err := had()
	if err != nil {
		t.Fatal(err)
	}
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
	cfg.PageRankRounds++
	mpid1, _, err := caseRunners(*c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	atN1, _, err := mpid1()
	if err != nil {
		t.Fatal(err)
	}
	prev, next := ranks(atN), ranks(atN1)
	var delta float64
	for v, r := range next {
		if d := math.Abs(r - prev[v]); d > delta {
			delta = d
		}
	}
	if delta > 1e-6 {
		t.Fatalf("not at fixed point: max per-vertex delta %g after %d rounds", delta, cfg.PageRankRounds-1)
	}
}
