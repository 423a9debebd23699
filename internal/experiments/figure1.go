package experiments

import (
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/sim"
	"github.com/ict-repro/mpid/internal/stats"
)

// Figure1Params returns the §II.A configuration behind Figure 1: the
// GridMix JavaSort benchmark over 150 GB, 64 MB blocks, 8/8 slots on 7
// worker nodes, 2345 reduce tasks.
func Figure1Params(inputBytes int64) sim.HadoopJob {
	p := sim.JavaSort(inputBytes, 8, 8)
	if inputBytes == 150*netmodel.GB {
		p.NumReduceTasks = 2345 // the paper's reducer ids run 0..2344
	}
	return p
}

// Figure1 runs the shuffle-overhead experiment and returns the report with
// per-reducer copy/sort/reduce times.
func Figure1(inputBytes int64) *sim.HadoopReport {
	return sim.RunHadoop(Figure1Params(inputBytes))
}

// RenderFigure1 prints the distribution summary next to the paper's, plus
// a copy-time histogram standing in for the scatter plot.
func RenderFigure1(r *sim.HadoopReport) string {
	var b strings.Builder
	copySum := r.CopySummary()
	redSum := r.ReduceSummary()
	sortSum := r.SortSummary()

	fmt.Fprintf(&b, "Figure 1: shuffle overhead, JavaSort %s, %d maps, %d reduces\n",
		stats.FormatBytes(r.Job.InputBytes), r.NumMaps, r.NumReduces)
	tb := stats.NewTable("stage", "min", "mean", "max", "paper min", "paper mean", "paper max")
	tb.AddRow("copy",
		fmt.Sprintf("%.1fs", copySum.Min()), fmt.Sprintf("%.1fs", copySum.Mean()), fmt.Sprintf("%.1fs", copySum.Max()),
		fmt.Sprintf("%.0fs", PaperFig1CopyMinSec), fmt.Sprintf("%.1fs", PaperFig1CopyMeanSec), fmt.Sprintf("%.0fs", PaperFig1CopyMaxSec))
	tb.AddRow("sort",
		fmt.Sprintf("%.4fs", sortSum.Min()), fmt.Sprintf("%.4fs", sortSum.Mean()), fmt.Sprintf("%.4fs", sortSum.Max()),
		"-", fmt.Sprintf("%.4fs", PaperFig1SortMeanSec), "-")
	tb.AddRow("reduce",
		fmt.Sprintf("%.1fs", redSum.Min()), fmt.Sprintf("%.1fs", redSum.Mean()), fmt.Sprintf("%.1fs", redSum.Max()),
		fmt.Sprintf("%.0fs", PaperFig1RedMinSec), fmt.Sprintf("%.1fs", PaperFig1RedMeanSec), fmt.Sprintf("%.0fs", PaperFig1RedMaxSec))
	b.WriteString(tb.String())

	fmt.Fprintf(&b, "first-wave stragglers excluded from the plot: %d (paper deletes %d at ~4000s; map phase here ends at %.0fs)\n",
		r.FirstWaveCount(), PaperFig1Stragglers, r.MapPhaseEnd.Seconds())
	copyShare := copyShareOfReducerLifecycle(r)
	fmt.Fprintf(&b, "copy share of reducer lifecycles: %.1f%% (paper: ~95%%)\n\n", copyShare)

	if copySum.Count() > 0 {
		hi := copySum.Max() * 1.01
		h := stats.NewHistogram(0, hi, 12)
		for _, v := range copySum.Values() {
			h.Add(v)
		}
		fmt.Fprintf(&b, "copy-time distribution (s):\n%s", h.String())
	}
	return b.String()
}

// copyShareOfReducerLifecycle computes the paper's "95%" statistic: total
// copy time over total reducer lifecycle time.
func copyShareOfReducerLifecycle(r *sim.HadoopReport) float64 {
	var copySum, life float64
	for _, rd := range r.Reduces {
		copySum += rd.Copy.Seconds()
		life += rd.Duration().Seconds()
	}
	if life == 0 {
		return 0
	}
	return 100 * copySum / life
}
