// Command mpid-bandwidth regenerates Figure 3: bandwidth achieved moving
// 128 MB through Hadoop RPC, HTTP-over-Jetty and MPI while sweeping the
// packet size from 1 B to 64 MB, plus the raw-TCP series the paper lists as
// future work (§VI(1)).
//
// By default it evaluates the calibrated cost models; with -live it
// measures the real Go substrates on loopback, and -transport selects
// the live MPI transport (chan, ring, ring+copy, or the default tcp).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ict-repro/mpid/internal/experiments"
)

func main() {
	live := flag.Bool("live", false, "measure the real Go substrates on loopback instead of the models")
	transport := flag.String("transport", "tcp", "live MPI transport: chan | ring | ring+copy | tcp")
	flag.Parse()

	mode := experiments.Model
	if *live {
		mode = experiments.Live
	}
	rows, err := experiments.Figure3Transport(mode, *transport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpid-bandwidth: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(experiments.RenderFigure3(mode, rows))
}
