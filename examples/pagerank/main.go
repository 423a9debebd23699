// PageRank: iterative MapReduce on the MPI-D runtime.
//
// The paper's related work (§V) discusses Twister, a runtime for iterative
// MapReduce; this example shows the same class of workload on MPI-D: each
// iteration is one run of the suite's PageRank round (workload.PageRank),
// whose output feeds the next through workload.PageRankNextSplits — the
// state lines travel in memory from the reducers to the next round's
// mappers. The map function distributes a vertex's rank over its outgoing
// links; the reduce function sums incoming contributions and applies the
// damping factor.
//
//	go run ./examples/pagerank
package main

import (
	"cmp"
	"fmt"
	"log"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

const (
	vertices   = 2_000
	avgDegree  = 8
	iterations = 12
	splitBytes = 16 << 10
)

// rank reads a state line's rank: "<id> <rank> <neighbours...>".
func rank(p kv.Pair) float64 {
	r, _ := strconv.ParseFloat(strings.Fields(string(p.Value))[1], 64) // formatted by the reducer
	return r
}

func main() {
	job, splits, err := workload.PageRank.Build(map[string]int64{
		"vertices": vertices, "degree": avgDegree, "split": splitBytes, "reducers": 4, "seed": 4,
	})
	if err != nil {
		log.Fatalf("pagerank: %v", err)
	}
	var pairs []kv.Pair
	for iter := 1; iter <= iterations; iter++ {
		result, err := mapred.Run(job, splits, 4)
		if err != nil {
			log.Fatalf("pagerank iteration %d: %v", iter, err)
		}
		if pairs = result.Pairs(); len(pairs) != vertices {
			log.Fatalf("iteration %d produced %d vertices, want %d", iter, len(pairs), vertices)
		}
		var mass float64
		for _, p := range pairs {
			mass += rank(p)
		}
		fmt.Printf("iteration %2d: rank mass = %.6f\n", iter, mass)
		// Sanity: the graph has no dangling vertices, so no rank mass leaks.
		if math.Abs(mass-1) > 0.05 {
			log.Fatalf("rank mass diverged: %f", mass)
		}
		splits = workload.PageRankNextSplits(pairs, splitBytes)
	}

	slices.SortStableFunc(pairs, func(a, b kv.Pair) int { return cmp.Compare(rank(b), rank(a)) })
	fmt.Println("top 5 vertices:")
	for _, p := range pairs[:5] {
		fmt.Printf("  v%-6s rank %.6f\n", p.Key, rank(p))
	}
}
