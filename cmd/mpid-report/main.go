// Command mpid-report runs every experiment in the paper's evaluation —
// Figure 2 (a, b, c), Figure 3, Figure 1, Table I, Figure 6 and the
// interconnect projection — and prints one consolidated report with the
// paper's published values beside each measurement. EXPERIMENTS.md is
// produced from this output.
//
//	mpid-report [-quick] [-live [-transport chan|tcp]] [-only fig2,fig3,fig1,table1,fig6,interconnects]
//
// The default reproduces the full paper scale (150 GB Table I rows, 100 GB
// Figure 6 sweep); -quick caps the simulated inputs for a smoke run. -live
// prints, right after each model table, the same figure measured on this
// machine: Figures 2 and 3 over loopback (MPI over -transport), Figure 1
// as a 256 KB WordCount on the mini-Hadoop engine, Figure 6 on both engines
// from 256 KB to 16 MB. -only prints the named sections, in report order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/experiments"
	"github.com/ict-repro/mpid/internal/netmodel"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "mpid-report: %v\n", err)
		os.Exit(1)
	}
}

// section is one part of the report.
type section struct {
	name  string
	print func() error
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("mpid-report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "cap the simulated input sizes for a fast smoke run")
	live := fs.Bool("live", false, "after each model table, print the figure measured on this machine")
	only := fs.String("only", "", "comma-separated sections to print: fig2,fig3,fig1,table1,fig6,interconnects (default all)")
	transport := fs.String("transport", "tcp", "live MPI transport: "+strings.Join(experiments.TransportNames, " | "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(experiments.TransportNames, *transport) {
		return fmt.Errorf("unknown transport %q (want %s)", *transport, strings.Join(experiments.TransportNames, ", "))
	}

	fig1GB, table1Max, fig6Max := int64(150), int64(150), int64(100)
	if *quick {
		fig1GB, table1Max, fig6Max = 4, 9, 10
	}
	modes := []experiments.Mode{experiments.Model}
	if *live {
		modes = append(modes, experiments.Live)
	}

	sections := []section{
		{"fig2", func() error {
			for _, panel := range []experiments.SizeRange{experiments.Small, experiments.Medium, experiments.Large} {
				for _, mode := range modes {
					rows, err := experiments.Figure2(panel, mode, *transport)
					if err != nil {
						return err
					}
					fmt.Fprintln(w, experiments.RenderFigure2(panel, mode, rows))
				}
			}
			return nil
		}},
		{"fig3", func() error {
			for _, mode := range modes {
				rows, err := experiments.Figure3(mode, *transport)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, experiments.RenderFigure3(mode, rows))
			}
			return nil
		}},
		{"fig1", func() error {
			fmt.Fprintln(w, experiments.RenderFigure1(experiments.Figure1(fig1GB*netmodel.GB)))
			if !*live {
				return nil
			}
			r, err := experiments.Figure1LiveAt(256 << 10)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderFigure1Live(r))
			return nil
		}},
		{"table1", func() error {
			fmt.Fprintln(w, experiments.RenderTable1(experiments.Table1(table1Max)))
			return nil
		}},
		{"fig6", func() error {
			fmt.Fprintln(w, experiments.RenderFigure6(experiments.Figure6(fig6Max)))
			if !*live {
				return nil
			}
			rows, err := experiments.Figure6Live([]int64{256 << 10, 1 << 20, 4 << 20, 16 << 20})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderFigure6Live(rows))
			return nil
		}},
		{"interconnects", func() error {
			fmt.Fprintln(w, experiments.RenderInterconnects(experiments.ExtensionInterconnects(fig6Max)))
			return nil
		}},
	}

	chosen := map[string]bool{}
	for _, s := range sections {
		chosen[s.name] = *only == ""
	}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if _, ok := chosen[name]; !ok {
				return fmt.Errorf("unknown section %q in -only (want fig2, fig3, fig1, table1, fig6 or interconnects)", name)
			}
			chosen[name] = true
		}
	}

	start := time.Now()
	fmt.Fprintf(w, "mpid-report: reproducing the evaluation of \"Can MPI Benefit Hadoop and MapReduce Applications?\" (ICPP 2011)\n\n")
	for _, s := range sections {
		if !chosen[s.name] {
			continue
		}
		if err := s.print(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
