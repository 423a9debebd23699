// Distributed sort: the JavaSort/GridMix workload of the paper's §II.A,
// run on the real MPI-D runtime.
//
// Identity map, identity reduce, and a range partitioner (instead of the
// hash-mod default) so that concatenating the reducers' outputs in reducer
// order yields a globally sorted sequence — the TeraSort recipe. The range
// boundaries are sampled from the input (core.SampleCuts), so partitions
// stay balanced whatever the key distribution looks like. MPI-D's
// SortValues option is switched on to demonstrate the §IV.A on-demand
// value sorting during realignment.
//
//	go run ./examples/distributedsort
package main

import (
	"fmt"
	"log"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	const records = 100_000
	gen := workload.NewSortGenerator(2026)
	keyLen, recLen := gen.KeySize(), gen.RecordSize()
	input := gen.AppendRecords(nil, records)
	span := func(lo, hi int) []byte { return input[lo*recLen : hi*recLen] }

	// Four splits of uneven size, as HDFS blocks would be.
	splits := []mapred.Split{
		mapred.NewRecordSplit(0, span(0, 20_000), keyLen, recLen),
		mapred.NewRecordSplit(1, span(20_000, 55_000), keyLen, recLen),
		mapred.NewRecordSplit(2, span(55_000, 90_000), keyLen, recLen),
		mapred.NewRecordSplit(3, span(90_000, records), keyLen, recLen),
	}

	identityMap := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		return emit(k, v)
	})
	identityReduce := mapred.ReducerFunc(func(k []byte, values [][]byte, emit mapred.Emit) error {
		for _, v := range values {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})

	// Sample every 50th key for the range boundaries, as TeraSort samples
	// its input before launching the job.
	var sample [][]byte
	for i := 0; i < records; i += 50 {
		sample = append(sample, span(i, i+1)[:keyLen])
	}

	job := mapred.Job{
		Name:        "distributed-sort",
		Mapper:      identityMap,
		Reducer:     identityReduce,
		Partitioner: core.RangePartitioner(core.SampleCuts(sample, 8)),
		NumReducers: 8,
		SortValues:  true,
	}
	result, err := mapred.Run(job, splits, 4)
	if err != nil {
		log.Fatalf("distributedsort: %v", err)
	}

	// Concatenate reducer outputs in order and verify global order.
	var out []kv.Pair
	for _, rp := range result.ByReducer {
		out = append(out, rp...)
	}
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
		records, gen.RecordSize(), job.NumReducers)
	fmt.Printf("global order violations: %d\n", inversions)
	fmt.Printf("first key: %q  last key: %q\n", out[0].Key, out[len(out)-1].Key)
	fmt.Printf("shuffled %d bytes in %d messages over %d spills\n",
		result.MapCounters.BytesSent, result.MapCounters.MessagesSent, result.MapCounters.Spills)
	if inversions > 0 {
		log.Fatal("distributedsort: output is not globally sorted")
	}
}
