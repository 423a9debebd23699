// Command mpid-job runs one job of the workload suite (workload.Suite) on
// either execution engine in this repository:
//
//	mpid-job -job wordcount -input corpus.txt            # MPI-D engine
//	mpid-job -job wordcount -input corpus.txt -engine hadoop
//	mpid-job -job grep -param needle=0 -param bytes=1048576
//	mpid-job -job terasort -param records=1000 -param reducers=8 -top 5
//
// -job takes any suite name (-help lists them with each parameter's
// default), and each -param k=v sets one of the job's integer parameters; a
// name the job does not declare, or a value below the parameter's least, is
// refused, as the job service refuses it. -input FILE runs the job on the
// file's lines, cut into splits of -param split bytes (default 256 KiB),
// instead of generating its input; it is accepted for every job that
// declares a split parameter, the line-oriented ones.
//
// Output goes to stdout as key<TAB>value lines, like Hadoop's text output.
//
// Observability flags work on either engine: -metrics prints the job's final
// metrics snapshot, -trace FILE writes a Chrome trace-event JSON of the job's
// spans (checked first to load in chrome://tracing, with its event, span and
// lane counts and an ASCII timeline printed), -events prints the job's
// flight-recorder table to stderr, and -admin ADDR serves /metrics,
// /metrics.prom, /trace.json, /timeline, /events and /debug/pprof/ live for
// the job's duration. MPI-D records its mpid.spill, mpid.realign and
// mpid.recv.merge spans on an "mpid" lane and emits no events; the hadoop
// engine traces every task attempt under its "jobtracker" lane and records
// attempt lifecycle, spills, retries and faults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/serve"
	"github.com/ict-repro/mpid/internal/trace"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "mpid-job: %v\n", err)
		os.Exit(1)
	}
}

// inputSplit is the split size -input cuts a file at when no -param split
// is given.
const inputSplit = 256 << 10

// adminPages names what admin.New mounts, for -admin's help and its
// start-up line.
const adminPages = "/metrics /metrics.prom /trace.json /timeline /events /debug/pprof/"

func run(args []string, stdout, stderr io.Writer) error {
	suite := workload.Suite()
	var names []string
	for _, spec := range suite {
		names = append(names, spec.Name)
	}
	fs := flag.NewFlagSet("mpid-job", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobName := fs.String("job", "wordcount", "suite job: "+strings.Join(names, " | "))
	jobParams := map[string]int64{}
	fs.Func("param", "job parameters k=v[,k=v...] (repeatable)", func(s string) error { return serve.ParseParams(jobParams, s) })
	input := fs.String("input", "", "run on this text file's lines, in splits of -param split bytes (default 256 KiB), instead of generating input (jobs with a split parameter)")
	engineName := fs.String("engine", "mpid", "execution engine: mpid or hadoop")
	mappers := fs.Int("mappers", runtime.GOMAXPROCS(0), "mapper count (mpid engine) / tasktrackers (hadoop engine)")
	top := fs.Int("top", 0, "print only the first N output pairs (0 = all)")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON of the job to this file")
	adminAddr := fs.String("admin", "", "serve "+adminPages+" on this address for the job's duration (use 127.0.0.1:0 for an ephemeral port)")
	showMetrics := fs.Bool("metrics", false, "print the job's final metrics snapshot to stderr")
	showEvents := fs.Bool("events", false, "print the job's flight-recorder events to stderr")
	fs.Usage = func() {
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\njobs, each with its parameters' defaults:")
		for _, spec := range suite {
			fmt.Fprintf(stderr, "  %-10s %s\n  %-10s -param", spec.Name, spec.Description, "")
			for _, p := range spec.Params {
				fmt.Fprintf(stderr, " %s=%d", p.Name, p.Default)
			}
			fmt.Fprintln(stderr)
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	i := slices.IndexFunc(suite, func(s workload.Spec) bool { return s.Name == *jobName })
	if i < 0 {
		return fmt.Errorf("unknown job %q (want %s)", *jobName, strings.Join(names, ", "))
	}
	spec := suite[i]
	if err := serve.NewWorkloads().Check(spec.Name, jobParams); err != nil {
		return err
	}
	v, err := spec.Values(jobParams)
	if err != nil {
		return err
	}
	var splits []mapred.Split
	if _, lines := v["split"]; *input == "" {
		splits, err = spec.Input(v)
	} else if !lines {
		err = fmt.Errorf("-input: job %s reads no lines (it has no split parameter)", spec.Name)
	} else {
		var text []byte
		if text, err = os.ReadFile(*input); err == nil {
			splits = mapred.SplitText(text, int(workload.Param(jobParams, "split", inputSplit)))
		}
	}
	if err != nil {
		return err
	}
	job, err := spec.Job(v, splits)
	if err != nil {
		return err
	}

	eng, err := engine.New(*engineName, hadoop.Config{NumTrackers: *mappers})
	if err != nil {
		return err
	}
	var tel obs.Telemetry
	if *showEvents || *adminAddr != "" {
		tel.Events = obs.NewRecorder(0)
	}
	if *showMetrics || *traceFile != "" || *adminAddr != "" {
		lane := "mpid"
		if *engineName == "hadoop" {
			lane = "jobtracker"
		}
		tel.Metrics, tel.Tracer = metrics.NewRegistry(), trace.New(lane)
	}
	var adm *admin.Server
	if *adminAddr != "" {
		if adm, err = admin.New(*adminAddr, tel); err != nil {
			return fmt.Errorf("admin server: %w", err)
		}
		fmt.Fprintf(stderr, "mpid-job: admin on http://%s (%s)\n", adm.Addr(), adminPages)
	}
	result, _, err := eng.Run(context.Background(), job, splits, tel)
	if adm != nil {
		adm.Close()
	}
	if err != nil {
		return err
	}
	if *showMetrics {
		fmt.Fprint(stderr, tel.Metrics.String())
	}
	if *showEvents {
		fmt.Fprint(stderr, obs.RenderEvents(tel.Events.Events()))
	}
	if *traceFile != "" {
		if err := writeTrace(stderr, *traceFile, tel.Tracer.Spans()); err != nil {
			return err
		}
	}

	pairs := result.Pairs()
	fmt.Fprintf(stderr, "mpid-job: %s on %s engine: %d splits, %d output pairs\n",
		spec.Name, *engineName, len(splits), len(pairs))
	for i, p := range pairs {
		if *top > 0 && i == *top {
			break
		}
		if spec.Counts {
			n, _, err := kv.ReadVLong(p.Value)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\t%d\n", p.Key, n)
			continue
		}
		fmt.Fprintf(stdout, "%s\t%s\n", p.Key, p.Value)
	}
	return nil
}

// writeTrace exports the job's span trace as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev), refusing an export that
// would not load there, and prints its statistics and the ASCII timeline
// of the same spans to stderr.
func writeTrace(stderr io.Writer, path string, spans []trace.Span) error {
	data, err := trace.ChromeTrace(spans)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	st, err := trace.ValidateChrome(data)
	if err != nil {
		return fmt.Errorf("trace export is not a loadable trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: ok — %d events, %d spans, %d process lanes, %s span\n\n%s",
		path, st.Events, st.Spans, st.Procs, st.Duration, trace.RenderTimeline(spans, 100))
	return nil
}
