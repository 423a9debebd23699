package mapred

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
)

// wordCountMapper splits a line into words and emits (word, 1).
var wordCountMapper = MapperFunc(func(_, value []byte, emit Emit) error {
	for _, w := range bytes.Fields(value) {
		if err := emit(w, kv.AppendVLong(nil, 1)); err != nil {
			return err
		}
	}
	return nil
})

// wordCountReducer sums counts.
var wordCountReducer = ReducerFunc(func(key []byte, values [][]byte, emit Emit) error {
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

// refWordCount computes counts sequentially.
func refWordCount(text []byte) map[string]int64 {
	ref := make(map[string]int64)
	for _, line := range strings.Split(string(text), "\n") {
		for _, w := range strings.Fields(line) {
			ref[w]++
		}
	}
	return ref
}

func decodeCountPairs(t *testing.T, pairs []kv.Pair) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, p := range pairs {
		n, _, err := kv.ReadVLong(p.Value)
		if err != nil {
			t.Fatalf("bad count for %q: %v", p.Key, err)
		}
		out[string(p.Key)] += n
	}
	return out
}

// genText produces deterministic newline-delimited text of roughly size
// bytes from a 300-word pool. It stands in for the workload package's text
// generator, which can no longer be imported here: workload now depends on
// mapred, so an internal mapred test importing it would be a cycle.
func genText(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for b.Len() < size {
		words := 3 + rng.Intn(8)
		for i := 0; i < words; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "w%04d", rng.Intn(300))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func TestWordCountJobEndToEnd(t *testing.T) {
	text := genText(50_000, 1)
	job := Job{
		Name:        "wordcount",
		Mapper:      wordCountMapper,
		Reducer:     wordCountReducer,
		Combiner:    CombinerFromReducer(wordCountReducer),
		NumReducers: 3,
	}
	res, err := Run(job, SplitText(text, 8_000), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeCountPairs(t, res.Pairs())
	want := refWordCount(text)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	if res.MapTasks != 7 { // 50000/8000 rounded by line boundaries
		t.Logf("map tasks = %d", res.MapTasks) // informational; depends on line lengths
	}
	if res.MapCounters.PairsSent == 0 || res.MapCounters.Spills == 0 {
		t.Errorf("map counters empty: %+v", res.MapCounters)
	}
}

func TestWordCountSingleMapperSingleReducer(t *testing.T) {
	text := []byte("a b a\nc a b\n")
	res, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer}, SplitText(text, 1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeCountPairs(t, res.Pairs())
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestEmptyInputProducesEmptyOutput(t *testing.T) {
	res, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer, NumReducers: 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs()) != 0 {
		t.Fatalf("empty job produced %d pairs", len(res.Pairs()))
	}
}

func TestMoreMappersThanSplits(t *testing.T) {
	text := []byte("solo line\n")
	res, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer}, SplitText(text, 1024), 8)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeCountPairs(t, res.Pairs())
	if got["solo"] != 1 || got["line"] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestReducerOutputKeysSortedWithinReducer(t *testing.T) {
	text := genText(20_000, 2)
	res, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer, NumReducers: 2}, SplitText(text, 4_000), 3)
	if err != nil {
		t.Fatal(err)
	}
	for r, pairs := range res.ByReducer {
		for i := 1; i < len(pairs); i++ {
			if kv.Compare(pairs[i-1].Key, pairs[i].Key) > 0 {
				t.Fatalf("reducer %d output unsorted at %d", r, i)
			}
		}
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	boom := errors.New("mapper exploded")
	bad := MapperFunc(func(_, _ []byte, _ Emit) error { return boom })
	_, err := Run(Job{Mapper: bad, Reducer: wordCountReducer}, SplitText([]byte("x\n"), 10), 1)
	if err == nil || !strings.Contains(err.Error(), "mapper exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	bad := ReducerFunc(func(_ []byte, _ [][]byte, _ Emit) error { return errors.New("reducer exploded") })
	_, err := Run(Job{Mapper: wordCountMapper, Reducer: bad}, SplitText([]byte("x\n"), 10), 1)
	if err == nil || !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := Run(Job{}, nil, 1); err == nil {
		t.Error("job without mapper/reducer accepted")
	}
	if _, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer}, nil, 0); err == nil {
		t.Error("zero mappers accepted")
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	text := genText(40_000, 3)
	splits := SplitText(text, 8_000)
	run := func(withCombiner bool) core.Counters {
		job := Job{Mapper: wordCountMapper, Reducer: wordCountReducer}
		if withCombiner {
			job.Combiner = CombinerFromReducer(wordCountReducer)
		}
		res, err := Run(job, splits, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.MapCounters
	}
	with, without := run(true), run(false)
	if with.BytesSent >= without.BytesSent {
		t.Errorf("combiner did not shrink traffic: %d >= %d", with.BytesSent, without.BytesSent)
	}
	if with.PairsCombined == 0 {
		t.Error("PairsCombined = 0 with combiner on")
	}
}

func TestDistributedSortJob(t *testing.T) {
	// The JavaSort shape: identity map, identity reduce, range partitioner
	// so concatenating reducer outputs yields a globally sorted sequence.
	rng := rand.New(rand.NewSource(7))
	var pairs []kv.Pair
	for i := 0; i < 2_000; i++ {
		key := make([]byte, 10)
		for j := range key {
			key[j] = byte(' ' + rng.Intn(95))
		}
		pairs = append(pairs, kv.Pair{Key: key, Value: []byte(fmt.Sprintf("rec-%06d", i))})
	}
	splits := []Split{
		NewPairSplit(0, pairs[:500]),
		NewPairSplit(1, pairs[500:1200]),
		NewPairSplit(2, pairs[1200:]),
	}
	identityMap := MapperFunc(func(k, v []byte, emit Emit) error { return emit(k, v) })
	identityReduce := ReducerFunc(func(k []byte, values [][]byte, emit Emit) error {
		for _, v := range values {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	res, err := Run(Job{
		Name:        "javasort",
		Mapper:      identityMap,
		Reducer:     identityReduce,
		Partitioner: core.FirstByteRangePartitioner,
		NumReducers: 4,
	}, splits, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Concatenate reducer outputs in reducer order: must be globally sorted
	// and a permutation of the input.
	var out []kv.Pair
	for _, rp := range res.ByReducer {
		out = append(out, rp...)
	}
	if len(out) != len(pairs) {
		t.Fatalf("output has %d records, want %d", len(out), len(pairs))
	}
	for i := 1; i < len(out); i++ {
		if kv.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("global order violated at %d", i)
		}
	}
	// Permutation check via sorted multiset of keys.
	inKeys := make([]string, len(pairs))
	outKeys := make([]string, len(out))
	for i := range pairs {
		inKeys[i] = string(pairs[i].Key)
		outKeys[i] = string(out[i].Key)
	}
	sort.Strings(inKeys)
	sort.Strings(outKeys)
	for i := range inKeys {
		if inKeys[i] != outKeys[i] {
			t.Fatalf("key multiset differs at %d: %q vs %q", i, inKeys[i], outKeys[i])
		}
	}
}

func TestManyReducersManyMappersStress(t *testing.T) {
	text := genText(100_000, 4)
	job := Job{
		Mapper:      wordCountMapper,
		Reducer:     wordCountReducer,
		Combiner:    CombinerFromReducer(wordCountReducer),
		NumReducers: 7,
	}
	res, err := Run(job, SplitText(text, 5_000), 7)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeCountPairs(t, res.Pairs())
	want := refWordCount(text)
	var gotTotal, wantTotal int64
	for _, v := range got {
		gotTotal += v
	}
	for _, v := range want {
		wantTotal += v
	}
	if gotTotal != wantTotal {
		t.Fatalf("total words: got %d, want %d", gotTotal, wantTotal)
	}
}

// --------------------------------------------------------------------------
// Input splitting

func TestLineSplitRecords(t *testing.T) {
	s := NewLineSplit(0, []byte("first\nsecond\nthird"))
	var lines []string
	var offsets []int64
	err := s.Records(func(k, v []byte) error {
		off, _, err := kv.ReadVLong(k)
		if err != nil {
			return err
		}
		offsets = append(offsets, off)
		lines = append(lines, string(v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lines) != "[first second third]" {
		t.Fatalf("lines = %v", lines)
	}
	if fmt.Sprint(offsets) != "[0 6 13]" {
		t.Fatalf("offsets = %v", offsets)
	}
}

func TestLineSplitEmpty(t *testing.T) {
	s := NewLineSplit(0, nil)
	count := 0
	if err := s.Records(func(_, _ []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("empty split yielded %d records", count)
	}
}

// TestLineSplitKeysOutliveRecords: Records carves its offset keys from slabs
// it never overwrites, so a mapper that keeps every key still holds each
// line's offset after Records returns, across several slabs; and each key is
// cap-limited, so an append to one reaches no other. The split has an empty
// line at its start and in its middle, a line longer than a slab, and a last
// line with no newline.
func TestLineSplitKeysOutliveRecords(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("\n")
	b.WriteString(strings.Repeat("x", 2*keySlab) + "\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "line %d\n", i)
		if i == 1500 {
			b.WriteString("\n")
		}
	}
	b.WriteString("last line, no newline")
	data := b.Bytes()

	var want []int64
	for off := 0; off < len(data); {
		want = append(want, int64(off))
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
	}

	var keys [][]byte
	if err := NewLineSplit(0, data).Records(func(k, _ []byte) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if len(keys) != len(want) {
			t.Fatalf("%s: %d keys, want %d", when, len(keys), len(want))
		}
		for i, k := range keys {
			off, n, err := kv.ReadVLong(k)
			if err != nil || n != len(k) || off != want[i] {
				t.Fatalf("%s: key %d is %x (offset %d, %d of %d bytes read, %v), want offset %d", when, i, k, off, n, len(k), err, want[i])
			}
		}
	}
	check("after Records returned")

	slabs := 1
	for i := 1; i < len(keys); i++ {
		prev := keys[i-1]
		if unsafe.SliceData(keys[i]) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev))) {
			slabs++
		}
	}
	if slabs < 3 {
		t.Fatalf("%d keys came from %d slabs; the test needs at least 3", len(keys), slabs)
	}

	for _, k := range keys {
		_ = append(k, 'x')
	}
	check("after appending to every key")
}

func TestSplitTextCoversAllBytes(t *testing.T) {
	text := genText(10_000, 5)
	splits := SplitText(text, 1_000)
	var total int
	for i, s := range splits {
		ls := s.(*LineSplit)
		if s.ID() != i {
			t.Fatalf("split %d has ID %d", i, s.ID())
		}
		total += ls.Len()
	}
	if total != len(text) {
		t.Fatalf("splits cover %d bytes, want %d", total, len(text))
	}
}

func TestSplitTextNoStraddlingRecords(t *testing.T) {
	// The word multiset over all splits must equal the whole text's.
	text := genText(10_000, 6)
	splits := SplitText(text, 777)
	counts := make(map[string]int64)
	for _, s := range splits {
		if err := s.Records(func(_, v []byte) error {
			for _, w := range bytes.Fields(v) {
				counts[string(w)]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := refWordCount(text)
	if len(counts) != len(want) {
		t.Fatalf("distinct words %d, want %d", len(counts), len(want))
	}
	for w, c := range want {
		if counts[w] != c {
			t.Fatalf("count[%q] = %d, want %d", w, counts[w], c)
		}
	}
}

func TestSplitTextDefaultBlockSize(t *testing.T) {
	splits := SplitText([]byte("a\nb\n"), 0)
	if len(splits) != 1 {
		t.Fatalf("got %d splits", len(splits))
	}
}

func TestTaskRetryRecoversTransientFailure(t *testing.T) {
	// The mapper fails the first attempt of every split, succeeding on
	// retry — the output must be exactly-once despite the failures.
	text := []byte("a b a\nc a b\nb c c\n")
	splits := SplitText(text, 6)
	var failed sync.Map // split first-attempt tracker via first record key
	flaky := MapperFunc(func(key, value []byte, emit Emit) error {
		if _, loaded := failed.LoadOrStore(string(key), true); !loaded {
			return errors.New("transient failure")
		}
		return wordCountMapper.Map(key, value, emit)
	})
	res, err := Run(Job{
		Mapper:          flaky,
		Reducer:         wordCountReducer,
		MaxTaskAttempts: 3,
	}, splits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedAttempts == 0 {
		t.Fatal("no failures recorded despite flaky mapper")
	}
	got := decodeCountPairs(t, res.Pairs())
	want := refWordCount(text)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d (retry duplicated or lost output)", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("distinct words %d, want %d", len(got), len(want))
	}
}

func TestTaskRetryBudgetExhausted(t *testing.T) {
	always := MapperFunc(func(_, _ []byte, _ Emit) error {
		return errors.New("permanent failure")
	})
	_, err := Run(Job{
		Mapper:          always,
		Reducer:         wordCountReducer,
		MaxTaskAttempts: 3,
	}, SplitText([]byte("x\n"), 10), 2)
	if err == nil || !strings.Contains(err.Error(), "budget 3 exhausted") {
		t.Fatalf("err = %v", err)
	}
}

func TestTaskRetryNoFailuresIsFreeOfSideEffects(t *testing.T) {
	// Buffered-commit mode with a healthy mapper must match direct mode.
	text := genText(20_000, 7)
	splits := SplitText(text, 4_000)
	direct, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer}, splits, 3)
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := Run(Job{Mapper: wordCountMapper, Reducer: wordCountReducer, MaxTaskAttempts: 4}, splits, 3)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.FailedAttempts != 0 {
		t.Fatalf("FailedAttempts = %d", buffered.FailedAttempts)
	}
	a := decodeCountPairs(t, direct.Pairs())
	b := decodeCountPairs(t, buffered.Pairs())
	if len(a) != len(b) {
		t.Fatalf("distinct words differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count[%q]: direct %d, buffered %d", k, v, b[k])
		}
	}
}

// TestResultOutlivesWorld pins what a holder of a Result relies on: it
// aliases nothing pooled or recycled. A reducer copies its output into blocks
// it allocated itself — never from Job.Pool, never a transport's receive
// buffer — so nothing changes it: not the world closing, not the next job
// churning the same shared pool. On each transport a sort job's result is
// checked only after a second, different job ran over the same bufpool and
// the first world is long closed.
func TestResultOutlivesWorld(t *testing.T) {
	worlds := map[string]func(n int) (*mpi.World, error){
		"chan": func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil },
		"ring+copy": func(n int) (*mpi.World, error) {
			return mpi.NewRingWorldConfig(n, mpi.RingConfig{CopyPayloads: true}), nil
		},
		"tcp": mpi.NewTCPWorld,
	}
	identityMap := MapperFunc(func(k, v []byte, emit Emit) error { return emit(k, v) })
	identityReduce := ReducerFunc(func(k []byte, values [][]byte, emit Emit) error {
		for _, v := range values {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	gen := func(seed int64, fill byte) []kv.Pair {
		rng := rand.New(rand.NewSource(seed))
		pairs := make([]kv.Pair, 3000)
		for i := range pairs {
			key := make([]byte, 10)
			rng.Read(key)
			pairs[i] = kv.Pair{Key: key, Value: bytes.Repeat([]byte{fill}, 90)}
		}
		return pairs
	}
	for name, newWorld := range worlds {
		t.Run(name, func(t *testing.T) {
			pool := bufpool.New()
			run := func(pairs []kv.Pair) *Result {
				t.Helper()
				job := Job{
					Name: "sort", Mapper: identityMap, Reducer: identityReduce,
					Partitioner: core.FirstByteRangePartitioner, NumReducers: 2,
					SpillThreshold: 32 << 10, Pool: pool,
				}
				splits := []Split{NewPairSplit(0, pairs[:len(pairs)/2]), NewPairSplit(1, pairs[len(pairs)/2:])}
				res, err := RunOnWorld(job, splits, 2, newWorld)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			input := gen(1, 'A')
			res := run(input)
			run(gen(2, 'B')) // same sizes, other bytes: lands in any recycled buffer
			runtime.GC()

			var got []kv.Pair
			for _, rp := range res.ByReducer {
				got = append(got, rp...)
			}
			want := append([]kv.Pair(nil), input...)
			sort.Slice(want, func(i, j int) bool { return kv.Compare(want[i].Key, want[j].Key) < 0 })
			if len(got) != len(want) {
				t.Fatalf("%d output pairs, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("pair %d after the world closed: %x/%.8q, want %x/%.8q",
						i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		})
	}
}
