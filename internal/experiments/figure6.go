package experiments

import (
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/sim"
)

// Figure6Row compares one input size: WordCount on simulated Hadoop vs the
// simulated MPI-D system.
type Figure6Row struct {
	SizeGB int64
	Hadoop float64 // seconds
	MPID   float64 // seconds
	// Paper values; zero when not published (ratio is published for all
	// three anchor sizes).
	PaperHadoop, PaperMPID, PaperRatio float64
}

// Ratio returns MPI-D time over Hadoop time (the paper reports 8%, 48%,
// 56% at 1/10/100 GB).
func (r Figure6Row) Ratio() float64 {
	if r.Hadoop == 0 {
		return 0
	}
	return r.MPID / r.Hadoop
}

// Figure6 sweeps input sizes up to maxSizeGB and returns the comparison.
func Figure6(maxSizeGB int64) []Figure6Row {
	var rows []Figure6Row
	for _, gb := range Figure6Sizes {
		if gb > maxSizeGB {
			continue
		}
		h := hadoopWordCount(gb * netmodel.GB)
		m := mpidWordCount(gb*netmodel.GB, netmodel.MPI())
		row := Figure6Row{
			SizeGB: gb,
			Hadoop: h.JobTime.Seconds(),
			MPID:   m.JobTime.Seconds(),
		}
		if ph, pm, pr, ok := PaperFigure6(gb); ok {
			row.PaperHadoop, row.PaperMPID, row.PaperRatio = ph, pm, pr
		}
		rows = append(rows, row)
	}
	return rows
}

// hadoopWordCount simulates the §IV.C WordCount on Hadoop 0.20.
func hadoopWordCount(inputBytes int64) *sim.HadoopReport {
	return sim.RunHadoop(sim.HadoopWordCount(inputBytes))
}

// mpidWordCount simulates the §IV.C WordCount on MPI-D, with the cluster's
// NICs running the given fabric (netmodel.MPI() is the paper's GigE).
func mpidWordCount(inputBytes int64, fabric netmodel.Model) *sim.MPIDReport {
	return sim.RunMPID(sim.MPIDWordCount(inputBytes), fabric)
}

// RenderFigure6 prints the sweep in the paper's terms.
func RenderFigure6(rows []Figure6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6: WordCount, Hadoop vs the MPI-D simulation system (7 workers, 49 mappers, 1 reducer)\n")
	b.WriteString(fmt.Sprintf("%-7s %12s %12s %8s %14s %12s %12s\n",
		"input", "Hadoop(s)", "MPI-D(s)", "ratio", "paper Hadoop", "paper MPI-D", "paper ratio"))
	for _, r := range rows {
		ph, pm, pr := "-", "-", "-"
		if r.PaperRatio != 0 {
			pr = fmt.Sprintf("%.0f%%", 100*r.PaperRatio)
		}
		if r.PaperHadoop != 0 {
			ph = fmt.Sprintf("%.0fs", r.PaperHadoop)
			pm = fmt.Sprintf("%.1fs", r.PaperMPID)
		}
		b.WriteString(fmt.Sprintf("%-7s %12.1f %12.1f %7.0f%% %14s %12s %12s\n",
			fmt.Sprintf("%dGB", r.SizeGB), r.Hadoop, r.MPID, 100*r.Ratio(), ph, pm, pr))
	}
	return b.String()
}
