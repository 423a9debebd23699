package hadoop

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

var wcMapper = mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
	for _, w := range bytes.Fields(line) {
		if err := emit(w, kv.AppendVLong(nil, 1)); err != nil {
			return err
		}
	}
	return nil
})

var wcReducer = mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
	var total int64
	for _, v := range values {
		n, _, err := kv.ReadVLong(v)
		if err != nil {
			return err
		}
		total += n
	}
	return emit(key, kv.AppendVLong(nil, total))
})

// runJob runs one job to completion on a fresh mini-cluster: the package's
// tests' one way into RunWithReportContext.
func runJob(job mapred.Job, splits []mapred.Split, cfg Config) (*mapred.Result, *JobReport, error) {
	return RunWithReportContext(context.Background(), job, splits, cfg)
}

func genText(t *testing.T, size int, seed int64) []byte {
	t.Helper()
	vocab := workload.NewVocabulary(300, seed)
	return workload.NewTextGenerator(vocab, 1.1, seed+1).BytesOfText(size)
}

func refCounts(text []byte) map[string]int64 {
	ref := make(map[string]int64)
	for _, line := range strings.Split(string(text), "\n") {
		for _, w := range strings.Fields(line) {
			ref[w]++
		}
	}
	return ref
}

func decode(t *testing.T, pairs []kv.Pair) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, p := range pairs {
		n, _, err := kv.ReadVLong(p.Value)
		if err != nil {
			t.Fatal(err)
		}
		out[string(p.Key)] += n
	}
	return out
}

func TestWordCountOnMiniHadoop(t *testing.T) {
	text := genText(t, 60_000, 1)
	job := mapred.Job{
		Name:        "wc",
		Mapper:      wcMapper,
		Reducer:     wcReducer,
		Combiner:    mapred.CombinerFromReducer(wcReducer),
		NumReducers: 3,
	}
	res, _, err := runJob(job, mapred.SplitText(text, 8_000), Config{NumTrackers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := decode(t, res.Pairs())
	want := refCounts(text)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	if res.MapTasks != len(mapred.SplitText(text, 8_000)) {
		t.Errorf("MapTasks = %d", res.MapTasks)
	}
}

func TestMiniHadoopMatchesMPIDEngine(t *testing.T) {
	// The same job on both engines must produce identical results — the
	// precondition for a fair live Figure 6.
	text := genText(t, 30_000, 2)
	splits := mapred.SplitText(text, 4_000)
	job := mapred.Job{
		Mapper:      wcMapper,
		Reducer:     wcReducer,
		Combiner:    mapred.CombinerFromReducer(wcReducer),
		NumReducers: 2,
	}
	hres, _, err := runJob(job, splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := mapred.Run(job, splits, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, m := decode(t, hres.Pairs()), decode(t, mres.Pairs())
	if len(h) != len(m) {
		t.Fatalf("engines disagree on distinct words: %d vs %d", len(h), len(m))
	}
	for w, c := range m {
		if h[w] != c {
			t.Errorf("count[%q]: hadoop %d, mpid %d", w, h[w], c)
		}
	}
}

func TestMiniHadoopSortJobGlobalOrder(t *testing.T) {
	const records = 1_000
	gen := workload.NewSortGenerator(3)
	keyLen, recLen := gen.KeySize(), gen.RecordSize()
	block := gen.AppendRecords(nil, records)
	splits := []mapred.Split{
		mapred.NewRecordSplit(0, block[:400*recLen], keyLen, recLen),
		mapred.NewRecordSplit(1, block[400*recLen:], keyLen, recLen),
	}
	identityMap := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error { return emit(k, v) })
	identityReduce := mapred.ReducerFunc(func(k []byte, values [][]byte, emit mapred.Emit) error {
		for _, v := range values {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	res, _, err := runJob(mapred.Job{
		Mapper:      identityMap,
		Reducer:     identityReduce,
		Partitioner: core.RangePartitioner([][]byte{{64}, {128}, {192}}),
		NumReducers: 4,
	}, splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out []kv.Pair
	for _, rp := range res.ByReducer {
		out = append(out, rp...)
	}
	if len(out) != records {
		t.Fatalf("output %d records, want %d", len(out), records)
	}
	for i := 1; i < len(out); i++ {
		if kv.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("global order violated at %d", i)
		}
	}
}

// TestSplitLenOfTeraSortSplits: a map task sizes its output buffer from
// splitLen, so a TeraSort split read from one record block must report what
// the same records as a PairSplit report.
func TestSplitLenOfTeraSortSplits(t *testing.T) {
	for _, skew := range []int64{0, 150} {
		_, splits, err := workload.TeraSort(map[string]int64{"records": 100_000, "splits": 16, "reducers": 2, "seed": 7, "skew": skew})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range splits {
			var pairs []kv.Pair
			if err := s.Records(func(k, v []byte) error {
				pairs = append(pairs, kv.Pair{Key: k, Value: v})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got, want := splitLen(s), mapred.NewPairSplit(s.ID(), pairs).Len(); got != want || got == 0 {
				t.Fatalf("skew=%d split %d: splitLen %d, want the PairSplit's %d", skew, s.ID(), got, want)
			}
		}
	}
}

func TestMiniHadoopMapperErrorAbortsJob(t *testing.T) {
	bad := mapred.MapperFunc(func(_, _ []byte, _ mapred.Emit) error {
		return errors.New("deliberate map failure")
	})
	_, _, err := runJob(mapred.Job{Mapper: bad, Reducer: wcReducer},
		mapred.SplitText([]byte("x\n"), 10), Config{})
	if err == nil || !strings.Contains(err.Error(), "deliberate map failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestMiniHadoopReducerErrorAbortsJob(t *testing.T) {
	bad := mapred.ReducerFunc(func(_ []byte, _ [][]byte, _ mapred.Emit) error {
		return errors.New("deliberate reduce failure")
	})
	_, _, err := runJob(mapred.Job{Mapper: wcMapper, Reducer: bad},
		mapred.SplitText([]byte("x y\n"), 10), Config{})
	if err == nil || !strings.Contains(err.Error(), "deliberate reduce failure") {
		t.Fatalf("err = %v", err)
	}
}

// TestMiniHadoopTaskPanicFailsJobOnly: a user mapper or reducer that panics
// fails its own job, with the panic in the error, once MaxTaskAttempts
// attempts have panicked; the process keeps running, and the next job on a
// fresh cluster succeeds.
func TestMiniHadoopTaskPanicFailsJobOnly(t *testing.T) {
	text := mapred.SplitText([]byte("x y\nz\n"), 2)
	badMapper := mapred.Job{Mapper: mapred.MapperFunc(func(_, _ []byte, _ mapred.Emit) error { panic("user mapper exploded") }),
		Reducer: wcReducer, MaxTaskAttempts: 2}
	badReducer := mapred.Job{Mapper: wcMapper, MaxTaskAttempts: 2,
		Reducer: mapred.ReducerFunc(func(_ []byte, _ [][]byte, _ mapred.Emit) error { panic("user reducer exploded") })}
	for want, bad := range map[string]mapred.Job{"user mapper exploded": badMapper, "user reducer exploded": badReducer} {
		if _, _, err := runJob(bad, text, Config{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("job error = %v, want the panic %q", err, want)
		}
	}
	res, _, err := runJob(mapred.Job{Mapper: wcMapper, Reducer: wcReducer}, text, Config{})
	if err != nil {
		t.Fatalf("job after the panicked jobs: %v", err)
	}
	if got := len(res.Pairs()); got != 3 {
		t.Fatalf("job after the panicked jobs: %d words, want 3", got)
	}
}

// TestHadoopJobCanceledMidMapEnds: a job canceled by its own mapper, on the
// tenth of 20000 one-record splits, stops through the engine alone — the
// mapper never looks at the context — and returns the context's error well
// inside the map phase.
func TestHadoopJobCanceledMidMapEnds(t *testing.T) {
	const nSplits = 20000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mapped atomic.Int64
	job := mapred.Job{NumReducers: 1, Reducer: wcReducer,
		Mapper: mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
			if mapped.Add(1) == 10 {
				cancel()
			}
			return emit(line, kv.AppendVLong(nil, 1))
		})}
	done := make(chan error, 1)
	go func() {
		_, _, err := RunWithReportContext(ctx, job, mapred.SplitText([]byte(strings.Repeat("x\n", nSplits)), 1), Config{NumTrackers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("canceled job hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if n := mapped.Load(); n > nSplits/100 {
		t.Errorf("%d of %d splits mapped: the cancel did not stop the map phase", n, nSplits)
	}
}

// TestHadoopJobCanceledMidReduceEnds: a job canceled by its reducer, on the
// first of the partition's keys, stops at the next key — the final merge feeds
// the reducer and polls the job's context between keys — and returns the
// context's error within a deadline, leaving no goroutine behind.
func TestHadoopJobCanceledMidReduceEnds(t *testing.T) {
	const keys = 20_000
	var text bytes.Buffer
	for i := 0; i < keys; i++ {
		fmt.Fprintf(&text, "w%06d\n", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reduced atomic.Int64
	job := mapred.Job{Mapper: wcMapper, NumReducers: 1, Reducer: mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		if reduced.Add(1) == 1 {
			cancel()
		}
		return wcReducer(key, values, emit)
	})}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, _, err := RunWithReportContext(ctx, job, mapred.SplitText(text.Bytes(), 40_000), Config{NumTrackers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("canceled job hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if n := reduced.Load(); n > keys/100 {
		t.Errorf("reducer saw %d of the partition's %d keys: the cancel did not stop the reduce", n, keys)
	}
	for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(limit); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before the job, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestMiniHadoopValidation(t *testing.T) {
	if _, _, err := runJob(mapred.Job{}, nil, Config{}); err == nil {
		t.Error("job without mapper/reducer accepted")
	}
}

func TestMiniHadoopEmptyInput(t *testing.T) {
	res, _, err := runJob(mapred.Job{Mapper: wcMapper, Reducer: wcReducer, NumReducers: 2},
		nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs()) != 0 {
		t.Fatalf("empty input produced %d pairs", len(res.Pairs()))
	}
}

func TestMiniHadoopManyTrackersAndSlots(t *testing.T) {
	text := genText(t, 40_000, 4)
	job := mapred.Job{
		Mapper:      wcMapper,
		Reducer:     wcReducer,
		NumReducers: 4,
	}
	res, _, err := runJob(job, mapred.SplitText(text, 2_000),
		Config{NumTrackers: 4, MapSlots: 3, ReduceSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := decode(t, res.Pairs())
	want := refCounts(text)
	var gt, wt int64
	for _, v := range got {
		gt += v
	}
	for _, v := range want {
		wt += v
	}
	if gt != wt {
		t.Fatalf("word totals differ: %d vs %d", gt, wt)
	}
}
