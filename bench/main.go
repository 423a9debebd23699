package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The driver's shape of a run: eight segments fill the timed window, twenty
// cold-start cycles stand behind setup_s, five verified jobs warm up.
const (
	windowSegments = 8
	coldCycleCount = 20
	warmupJobs     = 5
	defaultSeconds = 20
	defaultSeed    = 7
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process; empty runs all four, each in a child process")
	seed := flag.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	aa := flag.Int("aa", 0, "A/A mode: two interleaved sets of N full end-to-end runs of this same binary")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json, generated from the metric and workload tables")
	outDir := flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	flag.Parse()

	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *traced == 1, *outDir)
	default:
		err = runAll(*seed, *seconds, *traced, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process, prints every value as
// "workload name value unit" and, as the last line, the driver's JSON object.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	s := findSpec(name)
	if s == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	k := newKernel()
	if err := k.warm(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: warning:", err)
	}
	rep, err := measure(k, s, options{
		seed:     seed,
		segments: windowSegments,
		segment:  time.Duration(seconds) * time.Second / windowSegments,
		cycles:   coldCycleCount,
		warmups:  warmupJobs,
		trace:    traced,
		outDir:   outDir,
	})
	if err != nil {
		return err
	}
	printLines(os.Stdout, rep)
	table := endToEnd
	if traced {
		table = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]value)}
	for _, m := range table {
		result.Metrics[m.name] = value{Value: rep.values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d jobs produced wrong output or failed", name, rep.failed, rep.attempted)
	}
	return nil
}

func printLines(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.values))
	for name := range rep.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", rep.workload, name, strconv.FormatFloat(rep.values[name], 'g', -1, 64), metricUnit(name))
	}
	fmt.Fprintf(w, "%s samples %d count\n", rep.workload, rep.samples)
}

// runChild runs one workload in a child process of this same binary, so that
// peak_rss_mb and heap state are the workload's own, and parses the
// "workload name value unit" lines it prints.
func runChild(name string, seed int64, seconds, traced int, outDir string, echo io.Writer) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	values := make(map[string]float64)
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != name {
			continue // the closing JSON line
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad line %q", name, sc.Text())
		}
		values[f[1]] = v
		fmt.Fprintln(echo, sc.Text())
	}
	if runErr != nil {
		return values, fmt.Errorf("%s: %w", name, runErr)
	}
	return values, nil
}

func runAll(seed int64, seconds, traced int, outDir string) error {
	var failed []string
	for _, s := range specs {
		if _, err := runChild(s.name, seed, seconds, traced, outDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, s.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runAA runs two interleaved sets (ABAB...) of n end-to-end runs of this one
// binary and prints, per workload and end-to-end metric, each set's median
// and quartiles, their relative difference and the bound, and the same for
// the metric's raw (uncalibrated) twin where it has one.
func runAA(n int, seed int64, seconds int) error {
	type key struct{ set, workload, metric string }
	vals := make(map[key][]float64)
	for i := 0; i < n; i++ {
		for _, set := range []string{"A", "B"} {
			for _, s := range specs {
				got, err := runChild(s.name, seed+int64(i), seconds, 0, "", io.Discard)
				if err != nil {
					return err
				}
				for metric, v := range got {
					k := key{set, s.name, metric}
					vals[k] = append(vals[k], v)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: A/A pair %d/%d set %s done\n", i+1, n, set)
		}
	}
	fmt.Println("| workload | metric | A median [q1, q3] | B median [q1, q3] | diff | bound | raw twin diff | raw twin spread A |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	cell := func(v []float64) string {
		return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), quantile(v, 0.25), quantile(v, 0.75))
	}
	diff := func(a, b []float64) float64 { return (median(b) - median(a)) / median(a) }
	for _, s := range specs {
		for _, m := range endToEnd {
			a, b := vals[key{"A", s.name, m.name}], vals[key{"B", s.name, m.name}]
			twin := "n/a | n/a"
			if ra, rb := vals[key{"A", s.name, "raw." + m.name}], vals[key{"B", s.name, "raw." + m.name}]; len(ra) > 0 {
				twin = fmt.Sprintf("%+.1f%% | %.1f%% (cal %.1f%%)", 100*diff(ra, rb),
					100*(quantile(ra, 0.75)-quantile(ra, 0.25))/median(ra),
					100*(quantile(a, 0.75)-quantile(a, 0.25))/median(a))
			}
			fmt.Printf("| %s | %s | %s | %s | %+.1f%% | %.0f%% | %s |\n",
				s.name, m.name, cell(a), cell(b), 100*diff(a, b), 100*m.bound, twin)
		}
	}
	return nil
}

// writeManifest renders BENCHMARK.json from the tables in this package.
func writeManifest(w io.Writer) error {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadJSON{Name: s.name, Why: s.loop + ": " + s.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
