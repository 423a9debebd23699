package workload

import (
	"testing"

	"github.com/ict-repro/mpid/internal/mapred"
)

// The suite's jobs that repeat keys and have no combiner, on the MPI-D
// engine over an in-process world with 2 mappers: every pair a mapper emits
// stays in its send buffer until a spill. PageRank's keys are 6-byte vertex
// ids over a hub-heavy graph (1 + degree pairs per vertex); the join's are
// 6-byte user ids, Zipf-skewed across orders.
func benchNoCombinerJob(b *testing.B, build func(map[string]int64) (mapred.Job, []mapred.Split, error), params map[string]int64) {
	job, splits, err := build(params)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, err := mapred.Run(job, splits, 2); err != nil {
			b.Fatal(err)
		}
	}
	run() // first job in the process: arenas grow from zero
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkPageRankJob is one PageRank round over 20 000 vertices of average
// out-degree 6: about 140 000 pairs on 20 000 keys.
func BenchmarkPageRankJob(b *testing.B) {
	benchNoCombinerJob(b, PageRank.Build, map[string]int64{"vertices": 20_000, "degree": 6, "split": 64 << 10, "reducers": 2})
}

// BenchmarkJoinJob is the repartition join of 20 000 users and 200 000 orders:
// 220 000 pairs on 20 000 keys.
func BenchmarkJoinJob(b *testing.B) {
	benchNoCombinerJob(b, Join.Build, map[string]int64{"users": 20_000, "orders": 200_000, "split": 64 << 10, "reducers": 2})
}
