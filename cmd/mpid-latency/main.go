// Command mpid-latency regenerates Figure 2: point-to-point latency of
// Hadoop RPC vs MPI across message sizes (panels a: 1 B-1 KB, b: 1 KB-1 MB,
// c: 1 MB-64 MB).
//
// By default it evaluates the calibrated cost models, reproducing the
// paper's GigE-testbed numbers. With -live it measures the repository's
// real Go substrates (internal/mpi, internal/hadooprpc) on loopback
// instead; -transport selects the live MPI transport (chan, ring,
// ring+copy, or the default tcp).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ict-repro/mpid/internal/experiments"
)

func main() {
	rng := flag.String("range", "all", "size range: small, medium, large or all")
	live := flag.Bool("live", false, "measure the real Go substrates on loopback instead of the models")
	transport := flag.String("transport", "tcp", "live MPI transport: chan | ring | ring+copy | tcp")
	flag.Parse()

	mode := experiments.Model
	if *live {
		mode = experiments.Live
	}
	var panels []experiments.SizeRange
	switch *rng {
	case "small":
		panels = []experiments.SizeRange{experiments.Small}
	case "medium":
		panels = []experiments.SizeRange{experiments.Medium}
	case "large":
		panels = []experiments.SizeRange{experiments.Large}
	case "all":
		panels = []experiments.SizeRange{experiments.Small, experiments.Medium, experiments.Large}
	default:
		fmt.Fprintf(os.Stderr, "mpid-latency: unknown range %q\n", *rng)
		os.Exit(2)
	}
	for _, panel := range panels {
		rows, err := experiments.Figure2Transport(panel, mode, *transport)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpid-latency: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderFigure2(panel, mode, rows))
	}
}
