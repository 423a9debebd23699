package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

// Figure6LiveRow is one input size of the live engine comparison: the same
// WordCount job on the real mini-Hadoop engine (RPC heartbeats + HTTP
// shuffle) and on the real MPI-D runtime.
type Figure6LiveRow struct {
	SizeBytes int64
	Hadoop    time.Duration
	MPID      time.Duration
}

// Ratio returns MPI-D time over Hadoop time.
func (r Figure6LiveRow) Ratio() float64 {
	if r.Hadoop == 0 {
		return 0
	}
	return float64(r.MPID) / float64(r.Hadoop)
}

// liveCluster is the cluster both live WordCount figures run on. The
// paper pairs a 3 s heartbeat with 64 MB tasks; these 64 KB tasks get
// 25 ms, keeping the scheduling-to-work ratio comparable.
var liveCluster = hadoop.Config{
	NumTrackers: 4, MapSlots: 1, ReduceSlots: 1,
	Heartbeat: 25 * time.Millisecond,
}

// liveWordCountInput is the input both live WordCount figures run on: size
// bytes of Zipf text over a 2 000-word vocabulary, seeded by the size, in
// 64 KB splits.
func liveWordCountInput(size int64) []mapred.Split {
	text := workload.NewTextGenerator(workload.NewVocabulary(2_000, 33), 1.15, size).BytesOfText(int(size))
	return mapred.SplitText(text, 64<<10)
}

// Figure6Live runs the engine comparison at the given input sizes (bytes).
// This is the live analogue of Figure 6 scaled to one machine: both data
// paths are real — the Hadoop engine pays RPC heartbeat scheduling, map
// output materialization and HTTP shuffle fetches; the MPI-D engine ships
// combined, realigned buffers between pre-spawned ranks.
func Figure6Live(sizes []int64) ([]Figure6LiveRow, error) {
	job := workload.WordCountJob(2)
	hadoopEng := engine.Hadoop{Config: liveCluster}
	mpidEng := engine.MPID{Mappers: 4}
	var rows []Figure6LiveRow
	for _, size := range sizes {
		splits := liveWordCountInput(size)

		start := time.Now()
		hres, _, err := hadoopEng.Run(context.Background(), job, splits, obs.Telemetry{})
		if err != nil {
			return nil, fmt.Errorf("experiments: live hadoop at %d bytes: %w", size, err)
		}
		hTime := time.Since(start)

		start = time.Now()
		mres, _, err := mpidEng.Run(context.Background(), job, splits, obs.Telemetry{})
		if err != nil {
			return nil, fmt.Errorf("experiments: live mpid at %d bytes: %w", size, err)
		}
		mTime := time.Since(start)

		// Guard: identical output, or the timing comparison is void.
		if len(hres.Pairs()) != len(mres.Pairs()) {
			return nil, fmt.Errorf("experiments: engines disagree at %d bytes: %d vs %d keys",
				size, len(hres.Pairs()), len(mres.Pairs()))
		}
		rows = append(rows, Figure6LiveRow{SizeBytes: size, Hadoop: hTime, MPID: mTime})
	}
	return rows, nil
}

// RenderFigure6Live prints the comparison.
func RenderFigure6Live(rows []Figure6LiveRow) string {
	var b strings.Builder
	b.WriteString("Figure 6 (live): the same WordCount on the real mini-Hadoop engine vs the real MPI-D runtime\n")
	b.WriteString(fmt.Sprintf("%-9s %14s %14s %8s\n", "input", "Hadoop path", "MPI-D path", "ratio"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-9s %14v %14v %7.0f%%\n",
			fmt.Sprintf("%dKB", r.SizeBytes>>10),
			r.Hadoop.Round(time.Millisecond), r.MPID.Round(time.Millisecond),
			100*r.Ratio()))
	}
	b.WriteString("(both engines run the identical job on identical splits; the Hadoop path pays\n heartbeat scheduling, output materialization and HTTP shuffle, as the paper's does)\n")
	return b.String()
}
