// Command mpid-wordcount regenerates Figure 6: WordCount execution time on
// simulated Hadoop vs the simulated MPI-D system (7 worker nodes, 49
// mapper processes, 1 reducer) across input sizes from 1 GB up.
// -interconnects projects the MPI-D model onto faster networks; -live adds
// the same WordCount on the two real engines on this machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ict-repro/mpid/internal/experiments"
)

func main() {
	maxGB := flag.Int64("max", 100, "largest input size in GB")
	interconnects := flag.Bool("interconnects", false, "also project MPI-D onto 10GigE and InfiniBand (§VI(4))")
	live := flag.Bool("live", false, "also run the live engine comparison: real mini-Hadoop vs real MPI-D on this machine")
	flag.Parse()

	rows := experiments.Figure6(*maxGB)
	fmt.Println(experiments.RenderFigure6(rows))
	if *interconnects {
		fmt.Println(experiments.RenderInterconnects(experiments.ExtensionInterconnects(*maxGB)))
	}
	if *live {
		liveRows, err := experiments.Figure6Live([]int64{256 << 10, 1 << 20, 4 << 20, 16 << 20})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpid-wordcount: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.RenderFigure6Live(liveRows))
	}
}
