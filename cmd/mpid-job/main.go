// Command mpid-job runs a MapReduce job over a local text file on either
// execution engine in this repository:
//
//	mpid-job -job wordcount -input corpus.txt            # MPI-D engine
//	mpid-job -job wordcount -input corpus.txt -engine hadoop
//	mpid-job -job grep -pattern 'mpi.*d' -input corpus.txt
//	mpid-job -job sort -input records.txt
//
// Jobs:
//
//	wordcount  (word, count) over whitespace-separated words
//	grep       lines matching -pattern, keyed by byte offset
//	sort       lines sorted lexicographically (range-partitioned)
//
// Output goes to stdout as key<TAB>value lines, like Hadoop's text output.
//
// On the hadoop engine, observability flags are available: -metrics
// prints the jobtracker's final counter snapshot, -trace FILE writes a
// Chrome trace-event JSON of every task attempt (and prints an ASCII
// timeline), -events prints the job's flight-recorder table (attempt
// lifecycle, spills, retries, faults) to stderr, and -admin ADDR serves
// /metrics, /metrics.prom, /trace.json, /timeline, /events and
// /debug/pprof/ live for the job's duration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	jobName := flag.String("job", "wordcount", "job: wordcount, grep or sort")
	input := flag.String("input", "", "input text file (required)")
	engineName := flag.String("engine", "mpid", "execution engine: mpid or hadoop")
	pattern := flag.String("pattern", "", "regexp for -job grep")
	reducers := flag.Int("reducers", 2, "reduce task count")
	mappers := flag.Int("mappers", runtime.GOMAXPROCS(0), "mapper count (mpid engine) / tasktrackers (hadoop engine)")
	blockKB := flag.Int("block", 256, "split size in KB")
	top := flag.Int("top", 0, "print only the first N output pairs (0 = all)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the job to this file (hadoop engine)")
	adminAddr := flag.String("admin", "", "serve /metrics, /trace.json, /timeline and pprof on this address for the job's duration (hadoop engine; use 127.0.0.1:0 for an ephemeral port)")
	showMetrics := flag.Bool("metrics", false, "print the job's final metrics snapshot to stderr (hadoop engine)")
	showEvents := flag.Bool("events", false, "print the job's flight-recorder events to stderr (hadoop engine)")
	flag.Parse()

	if *input == "" {
		fatal(fmt.Errorf("-input is required"))
	}
	if *engineName != "hadoop" && (*traceFile != "" || *adminAddr != "" || *showMetrics || *showEvents) {
		fatal(fmt.Errorf("-trace, -admin, -metrics and -events need -engine hadoop (the mpid engine has no jobtracker to observe)"))
	}
	text, err := os.ReadFile(*input)
	if err != nil {
		fatal(err)
	}

	job, err := buildJob(*jobName, *pattern, *reducers)
	if err != nil {
		fatal(err)
	}
	splits := mapred.SplitText(text, *blockKB<<10)

	eng, err := engine.New(*engineName, hadoop.Config{NumTrackers: *mappers, AdminAddr: *adminAddr})
	if err != nil {
		fatal(err)
	}
	var tel engine.Telemetry
	if *showEvents {
		tel.Events = obs.NewRecorder(0)
	}
	result, rep, err := eng.Run(context.Background(), job, splits, tel)
	if err != nil {
		fatal(err)
	}
	if *showMetrics {
		fmt.Fprint(os.Stderr, rep.Metrics.String())
	}
	if *showEvents {
		fmt.Fprint(os.Stderr, obs.RenderEvents(tel.Events.Events()))
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, rep); err != nil {
			fatal(err)
		}
	}

	pairs := result.Pairs()
	fmt.Fprintf(os.Stderr, "mpid-job: %s on %s engine: %d splits, %d output pairs\n",
		*jobName, *engineName, len(splits), len(pairs))
	for i, p := range pairs {
		if *top > 0 && i == *top {
			break
		}
		if *jobName == "wordcount" {
			n, _, err := kv.ReadVLong(p.Value)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\t%d\n", p.Key, n)
			continue
		}
		fmt.Printf("%s\t%s\n", p.Key, p.Value)
	}
}

// buildJob assembles the requested job.
func buildJob(name, pattern string, reducers int) (mapred.Job, error) {
	switch name {
	case "wordcount":
		return workload.WordCountJob(reducers), nil

	case "grep":
		if pattern == "" {
			return mapred.Job{}, fmt.Errorf("-job grep needs -pattern")
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return mapred.Job{}, fmt.Errorf("bad -pattern: %w", err)
		}
		return mapred.Job{
			Name: name,
			Mapper: mapred.MapperFunc(func(offset, line []byte, emit mapred.Emit) error {
				if re.Match(line) {
					off, _, err := kv.ReadVLong(offset)
					if err != nil {
						return err
					}
					return emit([]byte(fmt.Sprintf("%012d", off)), line)
				}
				return nil
			}),
			Reducer: mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
				for _, v := range values {
					if err := emit(key, v); err != nil {
						return err
					}
				}
				return nil
			}),
			NumReducers: reducers,
		}, nil

	case "sort":
		identity := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
			for _, v := range values {
				if err := emit(key, v); err != nil {
					return err
				}
			}
			return nil
		})
		return mapred.Job{
			Name: name,
			Mapper: mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
				return emit(line, nil)
			}),
			Reducer:     identity,
			Partitioner: core.FirstByteRangePartitioner,
			NumReducers: reducers,
		}, nil
	}
	return mapred.Job{}, fmt.Errorf("unknown job %q (want wordcount, grep or sort)", name)
}

// writeTrace exports the job's span trace as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev) and prints the ASCII
// timeline of the same spans to stderr.
func writeTrace(path string, rep *hadoop.JobReport) error {
	data, err := rep.ChromeTrace()
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mpid-job: wrote %d spans to %s (open in chrome://tracing)\n\n%s",
		len(rep.Spans), path, rep.Timeline(100))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mpid-job: %v\n", err)
	os.Exit(1)
}
