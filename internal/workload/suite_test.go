package workload

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
)

// runSpec builds and runs a spec on the in-process MPI-D engine.
func runSpec(t *testing.T, name string, params map[string]int64) *mapred.Result {
	t.Helper()
	var spec *Spec
	for i, s := range Suite() {
		if s.Name == name {
			spec = &Suite()[i]
			break
		}
	}
	if spec == nil {
		t.Fatalf("no spec %q in suite", name)
	}
	job, splits, err := spec.Build(params)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	res, err := mapred.Run(job, splits, 4)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

func pairsEqual(a, b []kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestSuiteSpecsDeterministic runs every workload twice and asserts the
// canonical outputs match — the property every equality gate builds on.
func TestSuiteSpecsDeterministic(t *testing.T) {
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a := runSpec(t, spec.Name, nil).Pairs()
			b := runSpec(t, spec.Name, nil).Pairs()
			if len(a) == 0 {
				t.Fatalf("%s produced no output", spec.Name)
			}
			if !pairsEqual(a, b) {
				t.Fatalf("%s output differs across identical runs", spec.Name)
			}
		})
	}
}

// TestSpecValues: every suite spec resolves a missing parameter to its
// declared default and refuses a value one below its least, naming the
// parameter. A parameter whose least is math.MinInt64 has no value below it.
func TestSpecValues(t *testing.T) {
	for _, spec := range Suite() {
		v, err := spec.Values(nil)
		if err != nil {
			t.Fatalf("%s defaults: %v", spec.Name, err)
		}
		if len(v) != len(spec.Params) {
			t.Errorf("%s resolves %d values for %d parameters", spec.Name, len(v), len(spec.Params))
		}
		for _, p := range spec.Params {
			if got, ok := v[p.Name]; !ok || got != p.Default {
				t.Errorf("%s: missing %s resolves to %d (present %v), want its default %d", spec.Name, p.Name, got, ok, p.Default)
			}
			if p.Least == math.MinInt64 {
				continue
			}
			_, err := spec.Values(map[string]int64{p.Name: p.Least - 1})
			if err == nil || !strings.Contains(err.Error(), p.Name+"=") {
				t.Errorf("%s: %s=%d gives error %v, want one naming %s", spec.Name, p.Name, p.Least-1, err, p.Name)
			}
		}
	}
}

func TestTeraSortGloballySorted(t *testing.T) {
	for name, params := range map[string]map[string]int64{
		"uniform": {"records": 5000},
		"skewed":  {"records": 5000, "skew": 150},
	} {
		t.Run(name, func(t *testing.T) {
			res := runSpec(t, "terasort", params)
			var out []kv.Pair
			for _, rp := range res.ByReducer {
				out = append(out, rp...)
			}
			if len(out) != 5000 {
				t.Fatalf("%d records out, want 5000", len(out))
			}
			dups := 0
			for i := 1; i < len(out); i++ {
				c := kv.Compare(out[i-1].Key, out[i].Key)
				if c > 0 {
					t.Fatalf("record %d: key %q after %q breaks global order", i, out[i].Key, out[i-1].Key)
				}
				if c == 0 {
					dups++
				}
			}
			if name == "skewed" && dups < 1000 {
				t.Fatalf("skewed terasort produced only %d duplicate-key adjacencies; the skew is not stressing canonicalization", dups)
			}
		})
	}
}

func TestInvertedIndexPostings(t *testing.T) {
	res := runSpec(t, "invindex", map[string]int64{"docs": 10, "lines": 20})
	pairs := res.Pairs()
	if len(pairs) == 0 {
		t.Fatal("no postings")
	}
	multi := 0
	for _, p := range pairs {
		docs := strings.Fields(string(p.Value))
		if len(docs) > 1 {
			multi++
		}
		for i := range docs {
			if !strings.HasPrefix(docs[i], "d") {
				t.Fatalf("posting %q of %q is not a doc id", docs[i], p.Key)
			}
			if i > 0 && docs[i-1] >= docs[i] {
				t.Fatalf("postings of %q not sorted/deduped: %q", p.Key, p.Value)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no word appears in more than one document; index is trivial")
	}
}

func TestGrepCountsMatchReference(t *testing.T) {
	// Reference: regenerate the same text and count matching lines by hand.
	vocab := NewVocabulary(500, 1)
	word := vocab.Word(3)
	text := NewTextGenerator(vocab, 1.15, 1).BytesOfText(64 << 10)
	want := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		for _, w := range strings.Fields(line) {
			if w == word {
				want[line]++
				break
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("reference found no matches; needle too cold")
	}
	res := runSpec(t, "grep", nil)
	got := make(map[string]int64)
	for _, p := range res.Pairs() {
		n, _, err := kv.ReadVLong(p.Value)
		if err != nil {
			t.Fatalf("bad count: %v", err)
		}
		got[string(p.Key)] = n
	}
	if len(got) != len(want) {
		t.Fatalf("grep matched %d distinct lines, reference %d", len(got), len(want))
	}
	for line, n := range want {
		if got[line] != n {
			t.Fatalf("line %q counted %d, want %d", line, got[line], n)
		}
	}
}

func TestJoinShape(t *testing.T) {
	res := runSpec(t, "join", nil)
	pairs := res.Pairs()
	dupKeys := false
	for i, p := range pairs {
		parts := strings.SplitN(string(p.Value), "\t", 2)
		if len(parts) != 2 || parts[0] == "" {
			t.Fatalf("joined row %q has no name\tamount shape", p.Value)
		}
		if i > 0 && bytes.Equal(pairs[i-1].Key, p.Key) {
			dupKeys = true
			if kv.Compare(pairs[i-1].Value, p.Value) > 0 {
				t.Fatalf("equal-key rows out of canonical order at %d: %q then %q", i, pairs[i-1].Value, p.Value)
			}
		}
	}
	if !dupKeys {
		t.Fatal("join produced no duplicate output keys; the workload is not exercising canonicalization")
	}
}

// TestPageRankChainedRoundsConverge chains rounds through
// PageRankNextSplits — output feeding input without re-reading the graph —
// and asserts rank mass conservation plus convergence to a fixed point.
func TestPageRankChainedRoundsConverge(t *testing.T) {
	const vertices = 200
	job, splits, err := PageRank.Build(map[string]int64{"vertices": vertices, "degree": 5, "split": 4 << 10, "reducers": 2, "seed": 1})
	if err != nil {
		t.Fatal(err)
	}

	ranks := func(pairs []kv.Pair) map[string]float64 {
		out := make(map[string]float64, len(pairs))
		for _, p := range pairs {
			fields := strings.Fields(string(p.Value))
			r, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad rank in %q: %v", p.Value, err)
			}
			out[fields[0]] = r
		}
		return out
	}

	var prev map[string]float64
	var delta float64
	for round := 0; round < 15; round++ {
		res, err := mapred.Run(job, splits, 4)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pairs := res.Pairs()
		if len(pairs) != vertices {
			t.Fatalf("round %d emitted %d vertices, want %d", round, len(pairs), vertices)
		}
		cur := ranks(pairs)
		var mass float64
		for _, r := range cur {
			mass += r
		}
		if math.Abs(mass-1) > 0.02 {
			t.Fatalf("round %d: rank mass %f diverged from 1", round, mass)
		}
		delta = 0
		for v, r := range cur {
			if prev != nil {
				if d := math.Abs(r - prev[v]); d > delta {
					delta = d
				}
			}
		}
		prev = cur
		splits = PageRankNextSplits(pairs, 4<<10)
	}
	if delta > 1e-6 {
		t.Fatalf("not at fixed point after 15 rounds: max per-vertex delta %g", delta)
	}
}
