package serve

import (
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
)

// BenchmarkServedJob: one job of the repo benchmark's serve-open workload,
// end to end and one at a time — submit over RPC, build the 512 KiB input
// server-side, run WordCount on MPI-D in 64 KiB splits with 2 reducers,
// wait for the result — on a service shaped as that workload boots it
// (4 slots, queue 64, 2 mapper ranks).
func BenchmarkServedJob(b *testing.B) {
	s := New(Config{Slots: 4, QueueDepth: 64, Cluster: hadoop.Config{NumTrackers: 2}})
	c := serveRPC(b, s, NewWorkloads())
	params := map[string]int64{"bytes": 512 << 10, "split": 64 << 10, "reducers": 2, "seed": 7}
	b.SetBytes(params["bytes"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := c.Submit("tenant-a", "wordcount", params)
		if err != nil {
			b.Fatal(err)
		}
		rr, err := c.Wait(id)
		if err != nil {
			b.Fatal(err)
		}
		if !rr.OK {
			b.Fatal(rr.ErrMsg)
		}
	}
	b.StopTimer()
	if err := s.Drain(5 * time.Second); err != nil {
		b.Fatal(err)
	}
}
