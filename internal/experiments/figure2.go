package experiments

import (
	"fmt"
	"time"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/stats"
)

// Figure2Row is one message size of the latency comparison.
type Figure2Row struct {
	Size int64
	MPI  time.Duration
	RPC  time.Duration
	// PaperMPI/PaperRPC are the published values where the paper gives
	// them (zero otherwise).
	PaperMPI, PaperRPC time.Duration
}

// Ratio returns RPC latency over MPI latency, the multiple the paper
// quotes (2.49x at 1 B up to 123x at 1 MB).
func (r Figure2Row) Ratio() float64 {
	if r.MPI == 0 {
		return 0
	}
	return float64(r.RPC) / float64(r.MPI)
}

// Figure2 produces one panel of the Figure 2 latency comparison. Live mode
// measures the MPI side over the named transport (one of TransportNames);
// Model mode ignores it.
func Figure2(panel SizeRange, mode Mode, transport string) ([]Figure2Row, error) {
	sizes := panel.Sizes()
	rows := make([]Figure2Row, 0, len(sizes))

	var measure func(size int64) (mpi, rpc time.Duration, err error)
	switch mode {
	case Model:
		mpiModel, rpcModel := netmodel.MPI(), netmodel.HadoopRPC()
		measure = func(size int64) (time.Duration, time.Duration, error) {
			return mpiModel.Latency(size), rpcModel.Latency(size), nil
		}
	case Live:
		bench, err := newLiveLatencyBench(transport)
		if err != nil {
			return nil, err
		}
		defer bench.Close()
		measure = bench.measure
	}

	for _, size := range sizes {
		mpiLat, rpcLat, err := measure(size)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 2 at %d bytes: %w", size, err)
		}
		row := Figure2Row{Size: size, MPI: mpiLat, RPC: rpcLat}
		if pm, pr, ok := PaperLatency(size); ok {
			row.PaperMPI, row.PaperRPC = pm, pr
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure2 prints the panel as the harness table.
func RenderFigure2(panel SizeRange, mode Mode, rows []Figure2Row) string {
	tb := stats.NewTable("size", "MPI", "HadoopRPC", "ratio", "paper MPI", "paper RPC")
	for _, r := range rows {
		paperMPI, paperRPC := "-", "-"
		if r.PaperMPI != 0 {
			paperMPI = stats.FormatDuration(r.PaperMPI)
			paperRPC = stats.FormatDuration(r.PaperRPC)
		}
		tb.AddRow(stats.FormatBytes(r.Size), r.MPI, r.RPC,
			fmt.Sprintf("%.1fx", r.Ratio()), paperMPI, paperRPC)
	}
	return fmt.Sprintf("Figure 2 (%s, %s): point-to-point latency, Hadoop RPC vs MPI\n%s",
		panel, mode, tb.String())
}
