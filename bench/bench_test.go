package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/trace"
)

// testKernel is shared: warming it is the slowest fixed cost of a run.
var testKernel = newKernel()

func smokeOptions(t *testing.T, traced bool) options {
	return options{seed: 3, segments: 1, segment: 300 * time.Millisecond, cycles: 2, warmups: 1, trace: traced, outDir: t.TempDir()}
}

// TestManifest pins BENCHMARK.json to the tables it is generated from.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload in both kinds of run, shrunk to one 0.3 s
// segment and two cold cycles, and checks that every metric BENCHMARK.json
// names is emitted exactly once, well-formed and finite, that every output
// verified, and that the traced run wrote a loadable Chrome trace.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i := range specs {
		s := &specs[i]
		for _, traced := range []bool{false, true} {
			o := smokeOptions(t, traced)
			rep, err := measure(testKernel, s, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 || rep.samples == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d samples %d", s.name, traced, rep.attempted, rep.failed, rep.samples)
			}
			var out bytes.Buffer
			printLines(&out, rep)
			seen := make(map[string]int)
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != s.name || f[3] == "" {
					t.Errorf("%s: malformed line %q", s.name, line)
					continue
				}
				seen[f[1]]++
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			for _, m := range table {
				if !nameRE.MatchString(m.name) {
					t.Errorf("metric name %q is not well-formed", m.name)
				}
				if seen[m.name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times", s.name, traced, m.name, seen[m.name])
				}
				if v := rep.values[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: %s = %v", s.name, traced, m.name, v)
				}
			}
			if !traced {
				if rep.values["ok_share"] != 1 {
					t.Errorf("%s: ok_share %v", s.name, rep.values["ok_share"])
				}
				for _, name := range []string{"job_p50_ms", "job_p90_ms", "cpu_ms_per_job", "peak_rss_mb", "setup_s"} {
					if rep.values[name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", s.name, name, rep.values[name])
					}
				}
				continue
			}
			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+s.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if st, err := trace.ValidateChrome(data); err != nil || st.Spans == 0 {
				t.Errorf("%s: Chrome trace: %d spans, err %v", s.name, st.Spans, err)
			}
		}
	}
}

// tinySpec is the served WordCount job, small enough to run in milliseconds,
// on the chan transport.
func tinySpec() *spec {
	return &spec{name: "tiny", params: findSpec("serve-open").params, build: wordCount, engine: runChan, inputBytes: serveBytes}
}

// TestPhasesSumToWall: the three top-level spans of a traced job are
// contiguous, so they account for its wall time (2 % covers float rounding).
func TestPhasesSumToWall(t *testing.T) {
	p, err := prepare(tinySpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pr := newProbe(p.oracle)
	job, splits := pr.wrap(p.job, p.splits)
	start := time.Now()
	if _, _, err := runChan(job, splits); err != nil {
		t.Fatal(err)
	}
	end := time.Now()
	times := pr.times(start, end)
	sum := times["mapred.startup_ms"] + times["mapred.map_phase_ms"] + times["mapred.reduce_tail_ms"]
	if wall := ms(end.Sub(start)); math.Abs(sum-wall) > 0.02*wall {
		t.Errorf("phases sum to %.3f ms, wall is %.3f ms", sum, wall)
	}
	var top time.Duration
	spans := pr.spans("job", "test", start, end)
	for _, sp := range spans[1:] {
		if sp.Parent == spans[0].ID {
			top += sp.Duration()
		}
	}
	if top != spans[0].Duration() {
		t.Errorf("top-level spans cover %v of a %v job", top, spans[0].Duration())
	}
}

// TestCorruptDigestDropsOkShare: a wrong output must lower ok_share and count
// as a failure, which makes the command exit non-zero.
func TestCorruptDigestDropsOkShare(t *testing.T) {
	p, err := prepare(tinySpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p.oracle.digest[0] ^= 1
	r, err := newRunner(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	seg := r.segment(100*time.Millisecond, nil)
	seg.calib = calibPoint{wallMs: calibNominalMs, cpuMs: calibNominalCPUMs}
	sum := summarize(p, []*segment{seg})
	if _, failed := r.tally(); sum.okShare >= 1 || failed == 0 {
		t.Errorf("corrupted oracle digest: ok_share %v, failed %d", sum.okShare, failed)
	}
}

// TestPaceTimesFromDue: a stall in the generator delays later arrivals but
// not their due times, so latency measured from due includes the wait.
func TestPaceTimesFromDue(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 35 * time.Millisecond
	start := time.Now()
	var sinceDue []time.Duration
	lag := pace(start, interval, 4, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		if i == 0 {
			time.Sleep(stall)
		}
		sinceDue = append(sinceDue, time.Since(due))
	})
	// Arrival 1 was due at 10 ms but could only fire after the 35 ms stall.
	if sinceDue[1] < stall-interval {
		t.Errorf("arrival 1 fired %v after it was due, want at least %v", sinceDue[1], stall-interval)
	}
	if lag[1] < ms(stall-interval) {
		t.Errorf("arrival 1 lag %v ms does not report the stall", lag[1])
	}
}
