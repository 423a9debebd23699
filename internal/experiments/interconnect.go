package experiments

import (
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/stats"
)

// InterconnectRow projects one interconnect, the paper's §VI(4) future-work
// direction ("to utilize high performance interconnects such as the
// Infiniband"), in the spirit of Sur et al. (the paper's ref. 17).
type InterconnectRow struct {
	Name string
	// Latency1B and PeakBW characterize the fabric.
	Latency1B float64 // microseconds
	PeakMBps  float64
	// WordCountSec is the simulated MPI-D WordCount job time at SizeGB
	// with the cluster's NICs swapped for this fabric.
	WordCountSec float64
	SizeGB       int64
}

// ExtensionInterconnects projects the MPI-D WordCount of Figure 6 onto
// faster fabrics: GigE (the paper's testbed), 10 GigE and QDR InfiniBand.
// It answers the question §VI leaves open: how much of MPI-D's remaining
// runtime is network?
func ExtensionInterconnects(sizeGB int64) []InterconnectRow {
	fabrics := []netmodel.Model{netmodel.MPI(), netmodel.TenGigE(), netmodel.InfiniBand()}
	var rows []InterconnectRow
	for _, f := range fabrics {
		r := mpidWordCount(sizeGB*netmodel.GB, f)
		rows = append(rows, InterconnectRow{
			Name:         f.Name(),
			Latency1B:    float64(f.Latency(1)) / 1e3, // ns -> µs
			PeakMBps:     f.PeakBandwidth() / 1e6,
			WordCountSec: r.JobTime.Seconds(),
			SizeGB:       sizeGB,
		})
	}
	return rows
}

// RenderInterconnects prints the projection.
func RenderInterconnects(rows []InterconnectRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§VI(4)): MPI-D WordCount at %dGB on faster interconnects\n", rows[0].SizeGB)
	tb := stats.NewTable("fabric", "1B latency", "peak BW", "job time", "vs GigE")
	base := rows[0].WordCountSec
	for _, r := range rows {
		tb.AddRow(r.Name,
			fmt.Sprintf("%.1fµs", r.Latency1B),
			fmt.Sprintf("%.0fMB/s", r.PeakMBps),
			fmt.Sprintf("%.1fs", r.WordCountSec),
			fmt.Sprintf("%.2fx", base/r.WordCountSec))
	}
	b.WriteString(tb.String())
	b.WriteString("(job time is compute+disk bound once the fabric stops being the bottleneck,\n which is the Sur-et-al-style observation the paper cites as motivation)\n")
	return b.String()
}

// interconnectSanity guards the projection's invariant in tests.
func interconnectSanity(rows []InterconnectRow) error {
	for i := 1; i < len(rows); i++ {
		if rows[i].WordCountSec > rows[i-1].WordCountSec+1e-9 {
			return fmt.Errorf("faster fabric %q slower than %q: %g > %g",
				rows[i].Name, rows[i-1].Name, rows[i].WordCountSec, rows[i-1].WordCountSec)
		}
	}
	return nil
}
