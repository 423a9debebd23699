package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Bench regression gate: re-run each suite's smoke configuration and
// compare its headline ratios against the committed BENCH_*.json
// baselines. Only scale-free metrics are compared — speedups and the
// fairness ratio — because the smoke configs are deliberately smaller
// than the committed full-scale runs, so absolute milliseconds are not
// comparable but the A/B ratios they summarize largely are. The default
// tolerance is wide (50%) for the same reason: a smoke run on loaded CI
// hardware is a smoke detector for "the optimization stopped working",
// not a precision benchmark.

// DefaultBenchTolerance is the relative slack applied to every baseline
// comparison when the caller does not pick one.
const DefaultBenchTolerance = 0.5

// benchMetric is one headline number extracted from a baseline file.
type benchMetric struct {
	name        string
	value       float64
	lowerBetter bool
	// absolute gates current <= value directly with no tolerance scaling,
	// for invariants ("still below 1.0") rather than magnitudes.
	absolute bool
}

// BenchCheckRow is one metric's verdict.
type BenchCheckRow struct {
	Suite       string  `json:"suite"`
	Metric      string  `json:"metric"`
	Baseline    float64 `json:"baseline"`
	Current     float64 `json:"current"`
	LowerBetter bool    `json:"lower_better,omitempty"`
	OK          bool    `json:"ok"`
}

// BenchCheckResult is the whole gate's outcome.
type BenchCheckResult struct {
	Tolerance float64         `json:"tolerance"`
	Rows      []BenchCheckRow `json:"rows"`
	Skipped   []string        `json:"skipped,omitempty"` // suites with no committed baseline
	OK        bool            `json:"ok"`
}

// benchSuites orders the gate's suites; each maps to BENCH_<suite>.json.
var benchSuites = []string{"serve", "workloads", "shufflebytes", "transport"}

// shuffleBytesBaselines are the shufflebytes modes whose bytes_ratio is
// 1.0 by construction; the gate compares only the reduction modes.
var shuffleBytesBaselines = map[string]bool{"hadoop": true, "mpid": true, "coded-r1": true}

// RunBenchCheck loads the committed baselines from dir, re-runs the smoke
// configuration of every suite that has one, and compares the headline
// ratios under the given relative tolerance (<= 0 means
// DefaultBenchTolerance). Suites whose baseline file is absent are
// skipped, not failed — a fresh checkout without committed baselines
// still passes.
func RunBenchCheck(dir string, tol float64) (*BenchCheckResult, error) {
	base, skipped, err := loadBenchBaselines(dir)
	if err != nil {
		return nil, err
	}
	current := make(map[string]map[string]float64)
	for _, suite := range benchSuites {
		if len(base[suite]) == 0 {
			continue
		}
		cur, err := runBenchSmoke(suite)
		if err != nil {
			return nil, fmt.Errorf("bench-check: %s smoke run: %w", suite, err)
		}
		current[suite] = cur
	}
	res := compareBench(base, current, tol)
	res.Skipped = skipped
	return res, nil
}

// compareBench evaluates current metrics against baselines: a
// higher-is-better metric passes while current >= baseline*(1-tol), a
// lower-is-better one while current <= baseline*(1+tol). Baseline
// metrics with no current counterpart (e.g. a workload row the smoke
// config does not run) are ignored rather than failed.
func compareBench(base map[string][]benchMetric, current map[string]map[string]float64, tol float64) *BenchCheckResult {
	if tol <= 0 {
		tol = DefaultBenchTolerance
	}
	res := &BenchCheckResult{Tolerance: tol, OK: true}
	for _, suite := range benchSuites {
		cur := current[suite]
		if cur == nil {
			continue
		}
		for _, m := range base[suite] {
			c, ok := cur[m.name]
			if !ok {
				continue
			}
			row := BenchCheckRow{
				Suite: suite, Metric: m.name,
				Baseline: m.value, Current: c, LowerBetter: m.lowerBetter,
			}
			if m.absolute {
				row.OK = c <= m.value
			} else if m.lowerBetter {
				row.OK = c <= m.value*(1+tol)
			} else {
				row.OK = c >= m.value*(1-tol)
			}
			if !row.OK {
				res.OK = false
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// loadBenchBaselines reads every committed BENCH_<suite>.json under dir
// and extracts its headline metrics. Missing files are reported in the
// second return value; malformed ones are errors.
func loadBenchBaselines(dir string) (map[string][]benchMetric, []string, error) {
	out := make(map[string][]benchMetric)
	var skipped []string
	for _, suite := range benchSuites {
		path := filepath.Join(dir, "BENCH_"+suite+".json")
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			skipped = append(skipped, suite)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench-check: %w", err)
		}
		metrics, err := extractBenchMetrics(suite, data)
		if err != nil {
			return nil, nil, fmt.Errorf("bench-check: %s: %w", path, err)
		}
		out[suite] = metrics
	}
	return out, skipped, nil
}

// extractBenchMetrics pulls a suite's scale-free headline metrics out of
// one baseline document.
func extractBenchMetrics(suite string, data []byte) ([]benchMetric, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	num := func(m map[string]any, key string) (float64, error) {
		v, ok := m[key].(float64)
		if !ok {
			return 0, fmt.Errorf("missing or non-numeric %q", key)
		}
		return v, nil
	}
	switch suite {
	case "serve":
		v, err := num(doc, "fairness_ratio")
		if err != nil {
			return nil, err
		}
		return []benchMetric{{name: "fairness_ratio", value: v, lowerBetter: true}}, nil
	case "workloads":
		rows, ok := doc["workloads"].([]any)
		if !ok {
			return nil, fmt.Errorf("missing %q array", "workloads")
		}
		var out []benchMetric
		for i, raw := range rows {
			row, ok := raw.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("workloads[%d]: not an object", i)
			}
			name, ok := row["name"].(string)
			if !ok {
				return nil, fmt.Errorf("workloads[%d]: missing name", i)
			}
			v, err := num(row, "speedup_vs_hadoop")
			if err != nil {
				return nil, fmt.Errorf("workloads[%d] (%s): %w", i, name, err)
			}
			out = append(out, benchMetric{name: name + ".speedup_vs_hadoop", value: v})
		}
		return out, nil
	case "shufflebytes":
		rows, ok := doc["rows"].([]any)
		if !ok {
			return nil, fmt.Errorf("missing %q array", "rows")
		}
		var out []benchMetric
		for i, raw := range rows {
			row, ok := raw.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("rows[%d]: not an object", i)
			}
			wl, _ := row["workload"].(string)
			mode, _ := row["mode"].(string)
			if wl == "" || mode == "" {
				return nil, fmt.Errorf("rows[%d]: missing workload or mode", i)
			}
			if shuffleBytesBaselines[mode] {
				continue
			}
			v, err := num(row, "bytes_ratio")
			if err != nil {
				return nil, fmt.Errorf("rows[%d] (%s/%s): %w", i, wl, mode, err)
			}
			// The committed magnitude is scale-dependent — smoke inputs
			// duplicate keys less than the full-scale run, and hadoop
			// group formation varies with heartbeat timing — so the gate
			// checks the scale-free invariant instead: the mode still
			// ships fewer bytes than its in-family baseline. A ratio at
			// or above 1.0 means the byte reduction stopped working.
			_ = v
			out = append(out, benchMetric{name: wl + "." + mode + ".bytes_ratio", value: 1.0, lowerBetter: true, absolute: true})
		}
		return out, nil
	case "transport":
		for _, key := range []string{"ring_vs_chan_small_p50", "max_allocs_per_op"} {
			if _, err := num(doc, key); err != nil {
				return nil, err
			}
		}
		// Both headline metrics are absolute invariants, independent of
		// the committed magnitudes: the ring transport must still beat
		// the chan transport's small-message p50 (ratio below 1.0), and
		// the steady-state send→recv path must still be allocation-free
		// on every transport at every size.
		return []benchMetric{
			{name: "ring_vs_chan_small_p50", value: 1.0, lowerBetter: true, absolute: true},
			{name: "max_allocs_per_op", value: 0.0, lowerBetter: true, absolute: true},
		}, nil
	}
	return nil, fmt.Errorf("unknown suite %q", suite)
}

// runBenchSmoke runs one suite's smoke configuration and returns its
// headline metrics under the same names extractBenchMetrics produces.
func runBenchSmoke(suite string) (map[string]float64, error) {
	switch suite {
	case "serve":
		r, err := RunServeBench(SmokeServeBench())
		if err != nil {
			return nil, err
		}
		return map[string]float64{"fairness_ratio": r.FairnessRatio}, nil
	case "workloads":
		r, err := RunWorkloadBench(SmokeWorkloadBench())
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, len(r.Workloads))
		for _, row := range r.Workloads {
			out[row.Name+".speedup_vs_hadoop"] = row.SpeedupVsHadoop
		}
		return out, nil
	case "shufflebytes":
		r, err := RunShuffleBytesBench(SmokeShuffleBytesBench())
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, len(r.Rows))
		for _, row := range r.Rows {
			if shuffleBytesBaselines[row.Mode] {
				continue
			}
			out[row.Workload+"."+row.Mode+".bytes_ratio"] = row.BytesRatio
		}
		return out, nil
	case "transport":
		r, err := RunTransportBench(SmokeTransportBench())
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"ring_vs_chan_small_p50": r.RingVsChanSmallP50,
			"max_allocs_per_op":      r.MaxAllocsPerOp,
		}, nil
	}
	return nil, fmt.Errorf("unknown suite %q", suite)
}

// RenderBenchCheck prints the gate verdict table.
func RenderBenchCheck(r *BenchCheckResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench regression gate (tolerance %.0f%%)\n", r.Tolerance*100)
	fmt.Fprintf(&b, "  %-10s %-30s %10s %10s  %s\n", "SUITE", "METRIC", "BASELINE", "CURRENT", "VERDICT")
	for _, row := range r.Rows {
		verdict := "ok"
		if !row.OK {
			verdict = "REGRESSED"
		}
		dir := ""
		if row.LowerBetter {
			dir = " (lower better)"
		}
		fmt.Fprintf(&b, "  %-10s %-30s %10.3f %10.3f  %s%s\n",
			row.Suite, row.Metric, row.Baseline, row.Current, verdict, dir)
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  %-10s no committed baseline, skipped\n", s)
	}
	if r.OK {
		b.WriteString("  PASS\n")
	} else {
		b.WriteString("  FAIL: at least one metric regressed beyond tolerance\n")
	}
	return b.String()
}
