package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

// Figure1LiveResult pairs a live WordCount run's jobtracker report with
// the simulator's copy-share prediction at the same input size, so the
// measured per-reducer copy/sort/reduce breakdown (Figure 1) and
// copy-share of total task time (Table I) can be read next to the
// modelled ones.
type Figure1LiveResult struct {
	SizeBytes int64
	Report    *hadoop.JobReport
	// SimCopyPercent is the simulated Hadoop's Table I metric for
	// WordCount at the same input size.
	SimCopyPercent float64
}

// Figure1LiveAt runs the live WordCount on the mini-Hadoop engine (RPC
// heartbeats, HTTP shuffle, slot scheduling) and collects the
// jobtracker's per-task phase report — the measured counterpart of the
// Figure 1 the simulator reproduces at paper scale. The input is small
// enough for one machine, so the absolute times are milliseconds, not the
// paper's thousands of seconds; the structure (per-reducer copy/sort/
// reduce split, copy share) is what carries over.
//
// The returned report carries the job's full span trace.
func Figure1LiveAt(sizeBytes int64) (*Figure1LiveResult, error) {
	_, report, err := engine.Hadoop{Config: liveCluster}.Run(context.Background(),
		workload.WordCountJob(2), liveWordCountInput(sizeBytes), obs.Telemetry{})
	if err != nil {
		return nil, fmt.Errorf("experiments: live figure 1 at %d bytes: %w", sizeBytes, err)
	}
	sim := hadoopWordCount(sizeBytes)
	return &Figure1LiveResult{
		SizeBytes:      sizeBytes,
		Report:         report,
		SimCopyPercent: sim.CopyPercent(),
	}, nil
}

// RenderFigure1Live prints the live report and the live-vs-simulated
// copy-share comparison.
func RenderFigure1Live(r *Figure1LiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 (live): WordCount %dKB on the real mini-Hadoop engine\n\n", r.SizeBytes>>10)
	b.WriteString(r.Report.String())
	fmt.Fprintf(&b, "\ncopy share of all task time: %.1f%% live vs %.1f%% simulated (Hadoop WordCount, same input)\n",
		r.Report.CopyShareOfTotal(), r.SimCopyPercent)
	b.WriteString("(the live copy share includes real heartbeat-paced mapLocations polling and HTTP\n fetches; the simulator models the paper's cluster, so agreement is structural, not exact)\n")
	return b.String()
}
