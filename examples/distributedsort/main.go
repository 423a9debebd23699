// Distributed sort: the JavaSort/GridMix workload of the paper's §II.A,
// run on the real MPI-D runtime.
//
// The job is the suite's TeraSort (workload.TeraSort): identity map,
// identity reduce, and a range partitioner (instead of the hash-mod
// default) so that concatenating the reducers' outputs in reducer order
// yields a globally sorted sequence. The range boundaries are sampled from
// the input (core.SampleCuts), so partitions stay balanced whatever the key
// distribution looks like. MPI-D's SortValues option is switched on to
// demonstrate the §IV.A on-demand value sorting during realignment.
//
//	go run ./examples/distributedsort
package main

import (
	"fmt"
	"log"
	"slices"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	const records = 100_000
	job, splits, err := workload.TeraSort(map[string]int64{
		"records": records, "splits": 4, "reducers": 8, "seed": 2026,
	})
	if err != nil {
		log.Fatalf("distributedsort: %v", err)
	}
	job.SortValues = true
	result, err := mapred.Run(job, splits, 4)
	if err != nil {
		log.Fatalf("distributedsort: %v", err)
	}

	// Concatenate reducer outputs in order and verify global order.
	out := slices.Concat(result.ByReducer...)
	if len(out) != records {
		log.Fatalf("distributedsort: %d records out, want %d", len(out), records)
	}
	inversions := 0
	for i := 1; i < len(out); i++ {
		if kv.Compare(out[i-1].Key, out[i].Key) > 0 {
			inversions++
		}
	}
	fmt.Printf("sorted %d records of %d bytes across %d reducers\n",
		records, len(out[0].Key)+len(out[0].Value), job.NumReducers)
	fmt.Printf("global order violations: %d\n", inversions)
	fmt.Printf("first key: %q  last key: %q\n", out[0].Key, out[len(out)-1].Key)
	fmt.Printf("shuffled %d bytes in %d messages over %d spills\n",
		result.MapCounters.BytesSent, result.MapCounters.MessagesSent, result.MapCounters.Spills)
	if inversions > 0 {
		log.Fatal("distributedsort: output is not globally sorted")
	}
}
