// Inverted index: a second domain-specific MapReduce application on the
// real MPI-D runtime — the classic search-engine workload the MapReduce
// paper motivates.
//
// The job is the suite's inverted index (workload.InvertedIndex): each
// input line is "d<id> w1 w2 ...", mappers emit (word, documentID) for
// every word, and reducers receive each word's full posting list (merged
// across mappers by MPI-D's grouped receive), deduplicate and sort it, and
// emit the postings. The reducer unions lists, so it doubles as the
// combiner that shrinks them before they leave the mapper.
//
//	go run ./examples/invertedindex
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	const docs = 24
	job, splits, err := workload.InvertedIndex.Build(map[string]int64{
		"docs": docs, "lines": 5, "reducers": 4, "seed": 11,
	})
	if err != nil {
		log.Fatalf("invertedindex: %v", err)
	}
	result, err := mapred.Run(job, splits, 6)
	if err != nil {
		log.Fatalf("invertedindex: %v", err)
	}

	// Every posting list is sorted and names each document once.
	index := result.Pairs()
	width := func(p kv.Pair) int { return len(strings.Fields(string(p.Value))) }
	for _, p := range index {
		ids := strings.Fields(string(p.Value))
		if !slices.IsSorted(ids) || len(slices.Compact(ids)) != len(ids) || len(ids) > docs {
			log.Fatalf("invertedindex: %s has postings [%s]", p.Key, p.Value)
		}
	}
	fmt.Printf("indexed %d documents: %d distinct terms\n", docs, len(index))
	// Show the widest posting lists.
	slices.SortStableFunc(index, func(a, b kv.Pair) int { return width(b) - width(a) })
	fmt.Println("terms appearing in the most documents:")
	for _, p := range index[:min(5, len(index))] {
		fmt.Printf("  %-12s (%2d) -> [%s]\n", p.Key, width(p), p.Value)
	}
}
