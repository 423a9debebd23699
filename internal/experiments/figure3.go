package experiments

import (
	"fmt"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/stats"
)

// Figure3TotalBytes is the fixed transfer the paper's bandwidth test moves
// (128 MB) while sweeping the packet size.
const Figure3TotalBytes = 128 * netmodel.MB

// Figure3Row is one packet size of the bandwidth comparison. Values are
// bytes/second.
type Figure3Row struct {
	Packet int64
	RPC    float64
	Jetty  float64
	MPI    float64
	// RawTCP is the §VI(1) future-work series (Socket over NIO analogue).
	RawTCP float64
}

// Figure3PacketSizes returns the swept packet sizes: 1 B to 64 MB.
func Figure3PacketSizes() []int64 {
	var sizes []int64
	for s := int64(1); s <= 64*netmodel.MB; s *= 4 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Figure3 produces the bandwidth comparison. Live mode measures the MPI
// series over the named transport (one of TransportNames), scaling the
// total transfer down for small packets so the experiment finishes in
// reasonable wall time; bandwidth is a rate, so the series is comparable.
// Model mode ignores the transport.
func Figure3(mode Mode, transport string) ([]Figure3Row, error) {
	sizes := Figure3PacketSizes()
	rows := make([]Figure3Row, 0, len(sizes))
	switch mode {
	case Model:
		rpc, jetty, mpi, raw := netmodel.HadoopRPC(), netmodel.Jetty(), netmodel.MPI(), netmodel.RawTCP()
		for _, p := range sizes {
			rows = append(rows, Figure3Row{
				Packet: p,
				RPC:    netmodel.Bandwidth(rpc, Figure3TotalBytes, p),
				Jetty:  netmodel.Bandwidth(jetty, Figure3TotalBytes, p),
				MPI:    netmodel.Bandwidth(mpi, Figure3TotalBytes, p),
				RawTCP: netmodel.Bandwidth(raw, Figure3TotalBytes, p),
			})
		}
	case Live:
		bench, err := newLiveBandwidthBench(transport)
		if err != nil {
			return nil, err
		}
		defer bench.Close()
		for _, p := range sizes {
			row, err := bench.measure(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 3 at packet %d: %w", p, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PeakBandwidths returns the per-substrate maxima over the series, the
// numbers the paper's summary quotes (MPI ~111, Jetty ~108, RPC ~1.4 MB/s).
func PeakBandwidths(rows []Figure3Row) (rpc, jetty, mpi, raw float64) {
	for _, r := range rows {
		if r.RPC > rpc {
			rpc = r.RPC
		}
		if r.Jetty > jetty {
			jetty = r.Jetty
		}
		if r.MPI > mpi {
			mpi = r.MPI
		}
		if r.RawTCP > raw {
			raw = r.RawTCP
		}
	}
	return rpc, jetty, mpi, raw
}

// RenderFigure3 prints the series plus the peak summary.
func RenderFigure3(mode Mode, rows []Figure3Row) string {
	tb := stats.NewTable("packet", "HadoopRPC", "Jetty", "MPI", "RawTCP")
	for _, r := range rows {
		tb.AddRow(stats.FormatBytes(r.Packet),
			stats.FormatRate(r.RPC), stats.FormatRate(r.Jetty),
			stats.FormatRate(r.MPI), stats.FormatRate(r.RawTCP))
	}
	rpc, jetty, mpi, raw := PeakBandwidths(rows)
	return fmt.Sprintf(
		"Figure 3 (%s): bandwidth moving %s, packet size swept\n%s\npeaks: RPC %s, Jetty %s, MPI %s, RawTCP %s (paper: %.1f / %.0f / %.0f MB/s)\n",
		mode, stats.FormatBytes(Figure3TotalBytes), tb.String(),
		stats.FormatRate(rpc), stats.FormatRate(jetty), stats.FormatRate(mpi), stats.FormatRate(raw),
		PaperPeakRPCMBps, PaperPeakJettyMBps, PaperPeakMPIMBps)
}
