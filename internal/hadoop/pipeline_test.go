package hadoop

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// Pipeline tests: the pipelined shuffle (sorted spills + concurrent k-way
// merge with background combine passes) must produce output byte-identical
// to the MPI-D engine's for the same job — a reference that shares none of
// the copier, pass-scheduling or combine-pass code — fault-free and under
// chaos — and its merge passes must visibly overlap the copy phase in the
// trace. The merge fan-in is fixed (mergeFactor), so the shapes that must
// reach the pass tree do it by map count.

// runBoth runs one job on the hadoop engine and on the MPI-D engine and
// returns the framed outputs for byte-exact comparison.
func runBoth(t *testing.T, job mapred.Job, splits []mapred.Split, cfg Config) (hadoop, mpid []byte) {
	t.Helper()
	resH, _, err := runJob(job, splits, cfg)
	if err != nil {
		t.Fatalf("hadoop run: %v", err)
	}
	resM, err := mapred.Run(job, splits, cfg.NumTrackers)
	if err != nil {
		t.Fatalf("mpid run: %v", err)
	}
	return encodePairs(resH.Pairs()), encodePairs(resM.Pairs())
}

// TestPipelinedMatchesMPID sweeps map/reduce shapes — including ones where
// maps far exceed mergeFactor, so intermediate passes actually run — and
// checks byte-identical output between the two engines.
func TestPipelinedMatchesMPID(t *testing.T) {
	cases := []struct {
		name     string
		size     int
		split    int
		reducers int
	}{
		{"few-maps", 20_000, 5_000, 2},       // 4 maps, below the factor: final merge only
		{"many-maps", 80_000, 1_000, 3},      // 80 maps: several passes per reducer
		{"single-reducer", 60_000, 1_000, 1}, // 60 maps funnel into one merger
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			text := genText(t, tc.size, 23)
			splits := mapred.SplitText(text, tc.split)
			job := wcJob(tc.reducers)
			got, want := runBoth(t, job, splits, Config{NumTrackers: 3})
			if !bytes.Equal(got, want) {
				t.Fatalf("hadoop output differs from mpid (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestPipelinedMatchesMPIDNoCombiner covers the path where merge passes
// concatenate multi-run value lists instead of combining them.
func TestPipelinedMatchesMPIDNoCombiner(t *testing.T) {
	text := genText(t, 50_000, 31)
	splits := mapred.SplitText(text, 1_000) // 50 maps
	job := wcJob(2)
	job.Combiner = nil
	got, want := runBoth(t, job, splits, Config{NumTrackers: 2})
	if !bytes.Equal(got, want) {
		t.Fatalf("no-combiner hadoop output differs from mpid (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPipelinedMatchesMPIDOrderInsensitive drives a reducer that
// canonicalizes its value list before emitting — the strictest
// order-insensitive check of multi-run value merging: every value byte
// must survive the pass tree, in any order.
func TestPipelinedMatchesMPIDOrderInsensitive(t *testing.T) {
	// Map each word to "word -> split-local occurrence tag"; the reducer
	// sorts and joins the tags, so outputs match iff the merged value
	// multisets match exactly.
	tagMapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		for i, w := range bytes.Fields(line) {
			tag := fmt.Sprintf("%s#%d", w, i)
			if err := emit(w, []byte(tag)); err != nil {
				return err
			}
		}
		return nil
	})
	joinReducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		tags := make([]string, len(values))
		for i, v := range values {
			tags[i] = string(v)
		}
		sort.Strings(tags)
		return emit(key, []byte(fmt.Sprint(tags)))
	})
	text := genText(t, 40_000, 17)
	splits := mapred.SplitText(text, 1_000) // 40 maps
	job := mapred.Job{Name: "tag-join", Mapper: tagMapper, Reducer: joinReducer, NumReducers: 3}
	got, want := runBoth(t, job, splits, Config{NumTrackers: 3})
	if !bytes.Equal(got, want) {
		t.Fatalf("order-insensitive output differs between engines (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPipelinedUnderChaosMatchesFaultFree repeats the flaky-RPC chaos run
// with maps far above mergeFactor, so background merge passes run while
// fetches fail, retry and chase re-executed maps: the output must stay
// byte-identical to the fault-free run of the same configuration.
func TestPipelinedUnderChaosMatchesFaultFree(t *testing.T) {
	text := genText(t, 40_000, 7)
	splits := mapred.SplitText(text, 500) // 80 maps
	job := wcJob(3)
	cfg := Config{NumTrackers: 3}
	clean, _, err := runJob(job, splits, cfg)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	cfg.Injector = faults.New(42, faults.Rule{
		Component:   "hadooprpc.client",
		Operation:   "call",
		Probability: 0.1,
		Action:      faults.Fail,
	})
	cfg.RPC = hadooprpc.Options{
		MaxAttempts: 8,
		Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
	}
	res, rep, err := runJob(job, splits, cfg)
	if err != nil {
		t.Fatalf("run under chaos: %v", err)
	}
	if rep.Metrics.Counter("shuffle.merge_passes") == 0 {
		t.Fatal("no background merge pass ran: the chaos run never exercised the pass tree")
	}
	if got, want := encodePairs(res.Pairs()), encodePairs(clean.Pairs()); !bytes.Equal(got, want) {
		t.Fatalf("outputs differ under chaos (%d vs %d bytes)", len(got), len(want))
	}
}

// TestObservedCombinerFallbackCounter: a job that supplies its combiner as an
// ObservedCombiner factory has it bound to the job's registry, so a combiner
// whose derived reducer rekeys its output — tripping CombinerFromReducer's
// fallback, which passes the values through untouched — is visible as
// mapred.combiner.fallback while the output still matches the combiner-free
// run.
func TestObservedCombinerFallbackCounter(t *testing.T) {
	rekey := mapred.ReducerFunc(func(_ []byte, values [][]byte, emit mapred.Emit) error {
		var total int64
		for _, v := range values {
			n, _, err := kv.ReadVLong(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit([]byte("rekeyed"), kv.AppendVLong(nil, total))
	})
	text := genText(t, 40_000, 23)
	splits := mapred.SplitText(text, 5_000)
	job := wcJob(2)
	job.Combiner = nil
	plain, _, err := runJob(job, splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job.ObservedCombiner = func(reg *metrics.Registry) core.CombineFunc {
		return mapred.CombinerFromReducerObserved(rekey, reg)
	}
	reg := metrics.NewRegistry()
	got, _, err := runJob(job, splits, Config{NumTrackers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePairs(got.Pairs()), encodePairs(plain.Pairs())) {
		t.Fatal("fallback did not pass values through untouched")
	}
	if reg.Snapshot().Counter("mapred.combiner.fallback") == 0 {
		t.Fatal("rekeying combiner tripped no fallbacks in the job's registry")
	}
}

// TestMergeOverlapVisibleInSpans is the trace-level acceptance check: with
// maps far above mergeFactor, at least one background merge span
// must lie inside its reduce task's copy-phase span — the copy/merge
// overlap the pipeline exists to create, as it appears in the Chrome trace.
func TestMergeOverlapVisibleInSpans(t *testing.T) {
	text := genText(t, 120_000, 5)
	splits := mapred.SplitText(text, 1_000) // ~120 maps
	job := wcJob(2)
	_, rep, err := runJob(job, splits, Config{NumTrackers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Index copy-phase spans by task span id.
	copyByParent := make(map[uint64]trace.Span)
	var merges []trace.Span
	for _, s := range rep.Spans {
		switch {
		case s.Kind == trace.KindPhase && s.Name == "reduce.copy":
			copyByParent[s.Parent] = s
		case s.Kind == trace.KindMerge:
			merges = append(merges, s)
		}
	}
	if len(merges) == 0 {
		t.Fatal("no merge spans recorded — background passes never ran")
	}
	overlapped := 0
	for _, m := range merges {
		cp, ok := copyByParent[m.Parent]
		if !ok {
			continue
		}
		if !m.Start.Before(cp.Start) && !m.Finish.After(cp.Finish) {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatalf("none of %d merge spans fall inside their task's copy phase", len(merges))
	}
	// The report should also carry the overlapped merge time per reducer.
	var mergeTime time.Duration
	for _, rt := range rep.Reduces {
		mergeTime += rt.Merge
	}
	if mergeTime == 0 {
		t.Fatal("reduce timings carry no merge time despite merge passes")
	}
}
