package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// writeBench drops one baseline file into dir.
func writeBench(t *testing.T, dir, suite, body string) {
	t.Helper()
	path := filepath.Join(dir, "BENCH_"+suite+".json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBenchBaselines(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "serve", `{"fairness_ratio": 1.8}`)
	writeBench(t, dir, "workloads", `{"workloads": [
		{"name": "wordcount", "speedup_vs_hadoop": 3.3},
		{"name": "terasort", "speedup_vs_hadoop": 2.1}
	]}`)
	writeBench(t, dir, "shufflebytes", `{"rows": [
		{"workload": "wordcount", "mode": "hadoop", "bytes_ratio": 1.0},
		{"workload": "wordcount", "mode": "hadoop-nodecombine", "bytes_ratio": 0.14},
		{"workload": "wordcount", "mode": "coded-r1", "bytes_ratio": 1.0},
		{"workload": "wordcount", "mode": "coded-r2", "bytes_ratio": 0.84}
	]}`)
	writeBench(t, dir, "transport", `{"ring_vs_chan_small_p50": 0.95, "max_allocs_per_op": 0}`)

	base, skipped, err := loadBenchBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v, want none", skipped)
	}
	if got := len(base["serve"]); got != 1 {
		t.Fatalf("serve metrics = %d, want 1", got)
	}
	if m := base["serve"][0]; m.name != "fairness_ratio" || m.value != 1.8 || !m.lowerBetter {
		t.Fatalf("serve metric = %+v, want lower-better fairness_ratio", m)
	}
	wantWork := map[string]float64{
		"wordcount.speedup_vs_hadoop": 3.3,
		"terasort.speedup_vs_hadoop":  2.1,
	}
	if got := len(base["workloads"]); got != len(wantWork) {
		t.Fatalf("workloads metrics = %d, want %d", got, len(wantWork))
	}
	for _, m := range base["workloads"] {
		if wantWork[m.name] != m.value || m.lowerBetter {
			t.Fatalf("workloads metric %s = %v, want %v", m.name, m.value, wantWork[m.name])
		}
	}
	// Baseline modes (ratio 1.0 by construction) are excluded; reduction
	// modes gate on the absolute invariant "still below 1.0", not on the
	// committed magnitude, which is input-scale-dependent.
	if got := len(base["shufflebytes"]); got != 2 {
		t.Fatalf("shufflebytes metrics = %d, want 2", got)
	}
	for _, m := range base["shufflebytes"] {
		if !m.lowerBetter || !m.absolute || m.value != 1.0 {
			t.Fatalf("shufflebytes metric = %+v, want absolute lower-better 1.0", m)
		}
	}
	// Transport gates are absolute invariants regardless of the committed
	// magnitudes: ring still below chan (1.0), allocs still zero.
	wantTransport := map[string]float64{"ring_vs_chan_small_p50": 1.0, "max_allocs_per_op": 0.0}
	if got := len(base["transport"]); got != len(wantTransport) {
		t.Fatalf("transport metrics = %d, want %d", got, len(wantTransport))
	}
	for _, m := range base["transport"] {
		if want, ok := wantTransport[m.name]; !ok || !m.lowerBetter || !m.absolute || m.value != want {
			t.Fatalf("transport metric = %+v, want absolute lower-better %v", m, wantTransport)
		}
	}
}

func TestLoadBenchBaselinesMissingFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "serve", `{"fairness_ratio": 1.8}`)
	base, skipped, err := loadBenchBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 || len(base["serve"]) != 1 {
		t.Fatalf("base = %v, want only serve", base)
	}
	want := map[string]bool{"workloads": true, "shufflebytes": true, "transport": true}
	if len(skipped) != len(want) {
		t.Fatalf("skipped = %v, want %v", skipped, want)
	}
	for _, s := range skipped {
		if !want[s] {
			t.Fatalf("unexpected skipped suite %q", s)
		}
	}
}

func TestLoadBenchBaselinesMalformed(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "serve", `{"no_fairness_here": true}`)
	if _, _, err := loadBenchBaselines(dir); err == nil {
		t.Fatal("want error for baseline without fairness_ratio")
	}
	dir2 := t.TempDir()
	writeBench(t, dir2, "workloads", `{"workloads": "not an array"}`)
	if _, _, err := loadBenchBaselines(dir2); err == nil {
		t.Fatal("want error for non-array workloads")
	}
}

func TestCompareBenchTolerance(t *testing.T) {
	base := map[string][]benchMetric{
		"workloads": {{name: "wordcount.speedup_vs_hadoop", value: 2.0}},
		"serve":     {{name: "fairness_ratio", value: 2.0, lowerBetter: true}},
	}
	cases := []struct {
		name    string
		current map[string]map[string]float64
		wantOK  bool
	}{
		{"within", map[string]map[string]float64{
			"workloads": {"wordcount.speedup_vs_hadoop": 1.5},
			"serve":     {"fairness_ratio": 2.5},
		}, true},
		{"at-boundary", map[string]map[string]float64{
			"workloads": {"wordcount.speedup_vs_hadoop": 1.0}, // exactly baseline*(1-0.5)
			"serve":     {"fairness_ratio": 3.0},
		}, true},
		{"speedup-regressed", map[string]map[string]float64{
			"workloads": {"wordcount.speedup_vs_hadoop": 0.9},
			"serve":     {"fairness_ratio": 2.0},
		}, false},
		{"fairness-regressed", map[string]map[string]float64{
			"workloads": {"wordcount.speedup_vs_hadoop": 2.0},
			"serve":     {"fairness_ratio": 3.1}, // lower-better metric got worse
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := compareBench(base, tc.current, 0.5)
			if res.OK != tc.wantOK {
				t.Fatalf("OK = %v, want %v\n%s", res.OK, tc.wantOK, RenderBenchCheck(res))
			}
			if len(res.Rows) != 2 {
				t.Fatalf("rows = %d, want 2", len(res.Rows))
			}
		})
	}
}

func TestCompareBenchIgnoresMetricsMissingFromCurrent(t *testing.T) {
	base := map[string][]benchMetric{
		"workloads": {
			{name: "wordcount.speedup_vs_hadoop", value: 3.3},
			{name: "exotic.speedup_vs_hadoop", value: 9.9},
		},
	}
	current := map[string]map[string]float64{
		"workloads": {"wordcount.speedup_vs_hadoop": 3.0},
	}
	res := compareBench(base, current, 0.5)
	if !res.OK || len(res.Rows) != 1 {
		t.Fatalf("OK=%v rows=%d, want OK with 1 row", res.OK, len(res.Rows))
	}
}

// TestCommittedBaselinesParse guards the gate against schema drift: the
// real committed BENCH_*.json files at the repo root must keep yielding
// the headline metrics the gate compares.
func TestCommittedBaselinesParse(t *testing.T) {
	base, skipped, err := loadBenchBaselines(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range skipped {
		t.Logf("suite %s has no committed baseline", s)
	}
	for suite, metrics := range base {
		if len(metrics) == 0 {
			t.Errorf("suite %s: baseline present but no metrics extracted", suite)
		}
		for _, m := range metrics {
			// Absolute invariants pin their own threshold (0 is a valid
			// one — "never allocates"); parsed magnitudes must be positive.
			if m.value <= 0 && !m.absolute {
				t.Errorf("suite %s metric %s: non-positive baseline %v", suite, m.name, m.value)
			}
		}
	}
}
