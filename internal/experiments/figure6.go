package experiments

import (
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/hadoopsim"
	"github.com/ict-repro/mpid/internal/mpidsim"
	"github.com/ict-repro/mpid/internal/netmodel"
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
		h := hadoopsim.Run(hadoopsim.WordCount(gb * netmodel.GB))
		m := mpidsim.Run(mpidsim.WordCount(gb * netmodel.GB))
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

// Figure6CodedRow is one point of the coded-shuffle extension to Figure 6:
// MPI-D WordCount at one input size and map-replication factor r.
type Figure6CodedRow struct {
	SizeGB      int64
	Replication int
	MPID        float64 // seconds
	ShuffleGB   float64 // shipped shuffle bytes (sender-link accounting)
}

// Figure6Coded sweeps the MPI-D simulation with coded-shuffle replication
// r ∈ rs at each Figure 6 input size up to maxSizeGB — the shipped-bytes
// counterpart of the time-based sweep. r = 1 is the uncoded baseline;
// higher r trades r× redundant map work for an r× reduction in shipped
// shuffle bytes, so job time falls only where the network bounds the job.
func Figure6Coded(maxSizeGB int64, rs []int) []Figure6CodedRow {
	var rows []Figure6CodedRow
	for _, gb := range Figure6Sizes {
		if gb > maxSizeGB {
			continue
		}
		for _, r := range rs {
			p := mpidsim.WordCount(gb * netmodel.GB)
			p.CodedReplication = r
			rep := mpidsim.Run(p)
			rows = append(rows, Figure6CodedRow{
				SizeGB:      gb,
				Replication: r,
				MPID:        rep.JobTime.Seconds(),
				ShuffleGB:   float64(rep.BytesShuffle) / float64(netmodel.GB),
			})
		}
	}
	return rows
}

// RenderFigure6Coded prints the coded sweep, one line per (size, r).
func RenderFigure6Coded(rows []Figure6CodedRow) string {
	var b strings.Builder
	b.WriteString("Figure 6 (coded): MPI-D WordCount with coded-shuffle map replication r\n")
	b.WriteString(fmt.Sprintf("%-7s %3s %12s %14s\n", "input", "r", "MPI-D(s)", "shipped(GB)"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-7s %3d %12.1f %14.3f\n",
			fmt.Sprintf("%dGB", r.SizeGB), r.Replication, r.MPID, r.ShuffleGB))
	}
	return b.String()
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
