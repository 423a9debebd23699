package shuffle

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/kv"
)

// buildRun frames the given key -> values map as a sorted run.
func buildRun(t *testing.T, groups map[string][][]byte) []byte {
	t.Helper()
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = kv.AppendKeyList(buf, kv.KeyList{Key: []byte(k), Values: groups[k]})
	}
	return buf
}

// randSegments generates n segments with random overlapping keys; the
// returned reference maps key -> values in segment order.
func randSegments(t *testing.T, rng *rand.Rand, n, keysPer, vocab int) (segs [][]byte, ref map[string][][]byte) {
	t.Helper()
	ref = make(map[string][][]byte)
	perSeg := make([]map[string][][]byte, n)
	for s := 0; s < n; s++ {
		perSeg[s] = make(map[string][][]byte)
		for len(perSeg[s]) < keysPer {
			k := fmt.Sprintf("key-%04d", rng.Intn(vocab))
			if _, dup := perSeg[s][k]; dup {
				continue
			}
			var vals [][]byte
			for v := 0; v <= rng.Intn(3); v++ {
				vals = append(vals, []byte(fmt.Sprintf("s%d-%s-v%d", s, k, v)))
			}
			perSeg[s][k] = vals
		}
	}
	// Reference in segment order.
	for s := 0; s < n; s++ {
		keys := make([]string, 0, len(perSeg[s]))
		for k := range perSeg[s] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ref[k] = append(ref[k], perSeg[s][k]...)
		}
		segs = append(segs, buildRun(t, perSeg[s]))
	}
	return segs, ref
}

// collect runs the final merge and gathers emitted groups, checking key
// order is strictly increasing.
func collect(t *testing.T, m *Merger) (keys []string, got map[string][][]byte) {
	t.Helper()
	got = make(map[string][][]byte)
	var prev []byte
	err := m.Merge(func(kl kv.KeyList) error {
		if prev != nil && kv.Compare(prev, kl.Key) >= 0 {
			t.Fatalf("merge emitted %q after %q", kl.Key, prev)
		}
		prev = append([]byte(nil), kl.Key...)
		vals := make([][]byte, len(kl.Values))
		for i, v := range kl.Values {
			vals[i] = append([]byte(nil), v...)
		}
		key := string(kl.Key)
		keys = append(keys, key)
		got[key] = vals
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, got
}

func TestValidateRun(t *testing.T) {
	run := buildRun(t, map[string][][]byte{
		"a": {[]byte("1")}, "b": {[]byte("2"), []byte("3")}, "c": {},
	})
	n, err := ValidateRun(run)
	if err != nil || n != 3 {
		t.Fatalf("ValidateRun = %d, %v; want 3, nil", n, err)
	}
	// Out of order: b before a.
	bad := kv.AppendKeyList(nil, kv.KeyList{Key: []byte("b")})
	bad = kv.AppendKeyList(bad, kv.KeyList{Key: []byte("a")})
	if _, err := ValidateRun(bad); err == nil {
		t.Fatal("unsorted run validated")
	}
	// Duplicate key.
	dup := kv.AppendKeyList(nil, kv.KeyList{Key: []byte("a")})
	dup = kv.AppendKeyList(dup, kv.KeyList{Key: []byte("a")})
	if _, err := ValidateRun(dup); err == nil {
		t.Fatal("duplicate-key run validated")
	}
	// Truncated frame.
	if _, err := ValidateRun(run[:len(run)-1]); err == nil {
		t.Fatal("truncated run validated")
	}
}

// TestValidateRunAllocatesNothing: checking a fetched run builds no value
// lists, so a valid run costs no allocation however many keys it holds.
func TestValidateRunAllocatesNothing(t *testing.T) {
	const keys = 1000
	var run []byte
	for i := 0; i < keys; i++ {
		run = kv.AppendKeyList(run, kv.KeyList{Key: []byte(fmt.Sprintf("key-%06d", i)), Values: [][]byte{[]byte("v"), {}}})
	}
	allocs := testing.AllocsPerRun(10, func() {
		if n, err := ValidateRun(run); n != keys || err != nil {
			t.Fatalf("ValidateRun = %d, %v; want %d, nil", n, err, keys)
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidateRun of a %d-key run allocates %.0f times, want 0", keys, allocs)
	}
}

// validateByDecoding is ValidateRun as it was while it decoded every frame
// with kv.ReadKeyList: the reference FuzzValidateRun holds the walk to.
func validateByDecoding(data []byte) (keys int, err error) {
	var prev []byte
	for len(data) > 0 {
		klist, n, err := kv.ReadKeyList(data)
		if err != nil {
			return keys, err
		}
		if keys > 0 && kv.Compare(prev, klist.Key) >= 0 {
			return keys, fmt.Errorf("run not sorted at key %d", keys)
		}
		prev = klist.Key
		keys++
		data = data[n:]
	}
	return keys, nil
}

// FuzzValidateRun: the allocation-free walk accepts exactly the runs that
// decoding every frame accepts, and counts the same keys before it stops.
// Seeds live in testdata/fuzz.
func FuzzValidateRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := ValidateRun(data)
		want, wantErr := validateByDecoding(data)
		if keys != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("ValidateRun = %d, %v; decoding every frame = %d, %v", keys, err, want, wantErr)
		}
	})
}

// TestMergeDeterministicOrder checks the pure final merge (no intermediate
// passes): exact equality with the reference, including cross-segment
// value order by segment sequence, over every byte that was added.
func TestMergeDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs, ref := randSegments(t, rng, 6, 40, 60)
	m := NewMerger(Config{Expected: len(segs), Factor: 100})
	added := 0
	for i, s := range segs {
		m.Add(i, s)
		added += len(s)
	}
	if st := m.Stats(); st.FinalBytes != 0 {
		t.Fatalf("FinalBytes = %d before Merge, want 0", st.FinalBytes)
	}
	keys, got := collect(t, m)
	if st := m.Stats(); st.FinalBytes != added {
		t.Fatalf("FinalBytes = %d with no passes, want the %d bytes added", st.FinalBytes, added)
	}
	if len(keys) != len(ref) {
		t.Fatalf("merged %d keys, want %d", len(keys), len(ref))
	}
	for k, want := range ref {
		if !valuesEqual(got[k], want) {
			t.Fatalf("key %s: values %q, want %q", k, got[k], want)
		}
	}
	if st := m.Stats(); st.Passes != 0 {
		t.Fatalf("factor 100 over 6 segments ran %d passes, want 0", st.Passes)
	}
}

// TestIteratorManyRunsSeqOrder pulls one pass over far more runs than any
// merge fan-in: keys come out strictly increasing, a key's values are the
// concatenation of its runs' lists in ascending Seq whatever order the runs
// were handed over in, value lists handed out earlier stay intact while the
// pull goes on, and the iterator keeps answering ok=false once drained.
func TestIteratorManyRunsSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	segs, ref := randSegments(t, rng, 80, 30, 120)
	runs := make([]Run, len(segs))
	for i, s := range segs {
		runs[i] = Run{Data: s, Seq: i}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	it, err := NewIterator(runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []kv.KeyList // retained as handed out, not copied
	for {
		kl, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if n := len(got); n > 0 && kv.Compare(got[n-1].Key, kl.Key) >= 0 {
			t.Fatalf("iterator yielded %q after %q", kl.Key, got[n-1].Key)
		}
		got = append(got, kl)
	}
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("Next after the end = ok %v, err %v", ok, err)
	}
	if len(got) != len(ref) {
		t.Fatalf("pulled %d keys, want %d", len(got), len(ref))
	}
	for _, kl := range got {
		if want := ref[string(kl.Key)]; !valuesEqual(kl.Values, want) {
			t.Fatalf("key %s: values %q, want %q", kl.Key, kl.Values, want)
		}
	}
}

// TestIteratorCorruptRun: a run that stops decoding surfaces as an error
// from whichever call reaches the bad frame, never as a short stream.
func TestIteratorCorruptRun(t *testing.T) {
	good := buildRun(t, map[string][][]byte{"a": {[]byte("1")}, "c": {[]byte("3")}})
	bad := append(buildRun(t, map[string][][]byte{"b": {[]byte("2")}}), 0x05, 'x') // truncated second frame
	if _, err := NewIterator([]Run{{Data: []byte{0x7F}}}, nil); err == nil {
		t.Fatal("NewIterator accepted a run whose first frame is truncated")
	}
	it, err := NewIterator([]Run{{Data: good, Seq: 0}, {Data: bad, Seq: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for {
		kl, ok, err := it.Next()
		if err != nil {
			break
		}
		if !ok {
			t.Fatalf("stream ended cleanly after %q despite the corrupt run", keys)
		}
		keys = append(keys, string(kl.Key))
	}
	if fmt.Sprint(keys) != "[a]" {
		t.Fatalf("keys before the error = %q, want just a", keys)
	}
}

// TestMergerPipelinedPasses drives a small-factor merger from concurrent
// adders and checks (a) intermediate passes actually ran, (b) the merged
// key space and value multisets match the reference.
func TestMergerPipelinedPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segs, ref := randSegments(t, rng, 24, 50, 120)
	var passes int
	var passMu sync.Mutex
	m := NewMerger(Config{
		Expected: len(segs),
		Factor:   4,
		Pool:     bufpool.New(),
		OnPass: func(pi PassInfo) {
			passMu.Lock()
			passes++
			passMu.Unlock()
			if pi.Runs < 2 || pi.BytesIn <= 0 || pi.Keys <= 0 {
				t.Errorf("degenerate pass info: %+v", pi)
			}
		},
	})
	var wg sync.WaitGroup
	for i, s := range segs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Add(i, s)
		}()
	}
	wg.Wait()
	_, got := collect(t, m)
	if len(got) != len(ref) {
		t.Fatalf("merged %d keys, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		if !sameMultiset(got[k], want) {
			t.Fatalf("key %s: values %q, want (any order) %q", k, got[k], want)
		}
	}
	passMu.Lock()
	defer passMu.Unlock()
	if passes == 0 {
		t.Fatal("no intermediate passes ran — pipeline not pipelining")
	}
	st := m.Stats()
	if st.Passes != passes || st.Time <= 0 {
		t.Fatalf("stats %+v disagree with %d observed passes", st, passes)
	}
}

// TestMergerCombine checks merge-time combining: with a sum combiner,
// per-key totals survive arbitrary pass composition, and intermediate
// passes shrink the data the final pass merges below what was added.
func TestMergerCombine(t *testing.T) {
	const segs, keysPer, vocab = 20, 30, 40
	rng := rand.New(rand.NewSource(3))
	ref := make(map[string]int64)
	added := 0
	m := NewMerger(Config{
		Expected: segs,
		Factor:   3,
		Pool:     bufpool.New(),
		Combine: func(key []byte, values [][]byte) [][]byte {
			var total int64
			for _, v := range values {
				n, _, err := kv.ReadVLong(v)
				if err != nil {
					t.Errorf("combine: %v", err)
					return values
				}
				total += n
			}
			return [][]byte{kv.AppendVLong(nil, total)}
		},
	})
	for s := 0; s < segs; s++ {
		groups := make(map[string][][]byte)
		for len(groups) < keysPer {
			k := fmt.Sprintf("key-%03d", rng.Intn(vocab))
			if _, dup := groups[k]; dup {
				continue
			}
			n := int64(rng.Intn(50) + 1)
			ref[k] += n
			groups[k] = [][]byte{kv.AppendVLong(nil, n)}
		}
		run := buildRun(t, groups)
		added += len(run)
		m.Add(s, run)
	}
	got := make(map[string]int64)
	err := m.Merge(func(kl kv.KeyList) error {
		var total int64
		for _, v := range kl.Values {
			n, _, err := kv.ReadVLong(v)
			if err != nil {
				return err
			}
			total += n
		}
		got[string(kl.Key)] = total
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("merged %d keys, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		if got[k] != want {
			t.Fatalf("key %s: total %d, want %d", k, got[k], want)
		}
	}
	if st := m.Stats(); st.Passes == 0 || st.FinalBytes <= 0 || st.FinalBytes >= added {
		t.Fatalf("combining passes should shrink the %d bytes added: %+v", added, st)
	}
}

// TestMergerCombinerPanicBecomesMergeError: background passes run the
// caller's combiner on goroutines the caller never sees, so a combiner that
// panics there must surface from Merge instead of killing the process.
func TestMergerCombinerPanicBecomesMergeError(t *testing.T) {
	one := [][]byte{kv.AppendVLong(nil, 1)}
	m := NewMerger(Config{
		Expected: 4,
		Factor:   2,
		Combine:  func([]byte, [][]byte) [][]byte { panic("combiner bug") },
	})
	for s := 0; s < 4; s++ {
		m.Add(s, buildRun(t, map[string][][]byte{"k": one}))
	}
	err := m.Merge(func(kv.KeyList) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "combiner bug") {
		t.Fatalf("Merge = %v, want the pass's panic as an error", err)
	}
}

func TestMergeRefusesIncomplete(t *testing.T) {
	m := NewMerger(Config{Expected: 2})
	m.Add(0, buildRun(t, map[string][][]byte{"a": {[]byte("1")}}))
	if err := m.Merge(func(kv.KeyList) error { return nil }); err == nil {
		t.Fatal("final merge with missing segments did not error")
	}
}

func TestMergeEmptySegments(t *testing.T) {
	m := NewMerger(Config{Expected: 3})
	m.Add(0, nil)
	m.Add(1, buildRun(t, map[string][][]byte{"k": {[]byte("v")}}))
	m.Add(2, nil)
	keys, got := collect(t, m)
	if len(keys) != 1 || string(got["k"][0]) != "v" {
		t.Fatalf("merge over empty segments: keys %v, got %v", keys, got)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	p := bufpool.New()
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) len = %d", len(b))
	}
	p.Put(b)
	b2 := p.Get(50)
	if cap(b2) < 50 || len(b2) != 50 {
		t.Fatalf("recycled Get(50): len %d cap %d", len(b2), cap(b2))
	}
	// Nil pool allocates.
	var nilPool *bufpool.Pool
	if got := nilPool.Get(8); len(got) != 8 {
		t.Fatalf("nil pool Get(8) len = %d", len(got))
	}
	nilPool.Put(nil)
}

func valuesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameMultiset(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = string(a[i]), string(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// fuzzRuns decodes fuzz input as runs of up to four: each record is a header
// byte naming its run (low two bits) and its key's length (the rest, mod 20),
// then the key bytes, the last key cut short by the end of the input. A
// record's value is its own position in the input as a VLong; a header with
// its top bit set pads it past 128 bytes, so its length prefix takes two
// bytes, and one with only the next bit set makes it empty. Each run frames
// its distinct keys in bytes.Compare order, values in record order.
func fuzzRuns(data []byte) []map[string][][]byte {
	runs := make([]map[string][][]byte, 4)
	for i := range runs {
		runs[i] = make(map[string][][]byte)
	}
	for rec := 0; len(data) > 0; rec++ {
		h := data[0]
		r, n := int(h&3), min(int(h>>2)%20, len(data)-1)
		key := string(data[1 : 1+n])
		value := kv.AppendVLong(nil, int64(rec))
		switch {
		case h&0x80 != 0:
			value = append(value, bytes.Repeat([]byte{0xAB}, 128+rec%64)...)
		case h&0x40 != 0:
			value = value[:0]
		}
		runs[r][key] = append(runs[r][key], value)
		data = data[1+n:]
	}
	return runs
}

// FuzzIteratorOrder holds the prefix-comparing merge to a sort-based
// reference: every run's frames sorted together by (key, Seq) with a stable
// sort, equal keys' values concatenated. The runs are handed over in reverse
// of their Seq, so heap order, not slice order, must put them right. Seeds
// live in testdata/fuzz: padding look-alikes ("a" against "a\x00"), keys
// sharing an 8-byte prefix, runs of 0xFF bytes, and one key in every run.
func FuzzIteratorOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		groups := fuzzRuns(data)
		type frame struct {
			key    []byte
			seq    int
			values [][]byte
		}
		var frames []frame
		runs := make([]Run, 0, len(groups))
		for seq := len(groups) - 1; seq >= 0; seq-- {
			runs = append(runs, Run{Data: buildRun(t, groups[seq]), Seq: seq})
			for k, vs := range groups[seq] {
				frames = append(frames, frame{[]byte(k), seq, vs})
			}
		}
		sort.SliceStable(frames, func(i, j int) bool {
			if c := bytes.Compare(frames[i].key, frames[j].key); c != 0 {
				return c < 0
			}
			return frames[i].seq < frames[j].seq
		})
		var want []kv.KeyList
		for _, fr := range frames {
			if n := len(want); n > 0 && bytes.Equal(want[n-1].Key, fr.key) {
				want[n-1].Values = append(want[n-1].Values, fr.values...)
				continue
			}
			want = append(want, kv.KeyList{Key: fr.key, Values: append([][]byte(nil), fr.values...)})
		}
		it, err := NewIterator(runs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			kl, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) {
					t.Fatalf("iterator yielded %d keys, want %d", i, len(want))
				}
				return
			}
			if i >= len(want) || !bytes.Equal(kl.Key, want[i].Key) || !valuesEqual(kl.Values, want[i].Values) {
				t.Fatalf("key %d: iterator yielded %q %q, want %q", i, kl.Key, kl.Values, want[min(i, len(want)-1)])
			}
		}
	})
}

// longForm frames a run as buildRun does, but writes every length and count
// below 256 as a two-byte VLong where one byte would do: a run ValidateRun
// accepts that no kv.Append function writes.
func longForm(t *testing.T, run []byte) []byte {
	t.Helper()
	vlong := func(dst []byte, v int) []byte {
		if v < 256 {
			return append(dst, 0x8F, byte(v)) // -113: one positive byte follows
		}
		return kv.AppendVLong(dst, int64(v))
	}
	var out []byte
	for len(run) > 0 {
		kl, n, err := kv.ReadKeyList(run)
		if err != nil {
			t.Fatal(err)
		}
		out = append(vlong(out, len(kl.Key)), kl.Key...)
		out = vlong(out, len(kl.Values))
		for _, v := range kl.Values {
			out = append(vlong(out, len(v)), v...)
		}
		run = run[n:]
	}
	return out
}

// decodeRun decodes every frame of a run.
func decodeRun(t *testing.T, run []byte) []kv.KeyList {
	t.Helper()
	var out []kv.KeyList
	for len(run) > 0 {
		kl, n, err := kv.ReadKeyList(run)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, kl)
		run = run[n:]
	}
	return out
}

// joinValues is a combiner that concatenates a key's values into one.
func joinValues(_ []byte, values [][]byte) [][]byte { return [][]byte{bytes.Join(values, nil)} }

// FuzzMergePass holds a merge pass, which copies frames as they lie, to
// kv.AppendKeyList over MergeRuns, with and without a combiner: byte for byte
// over canonically framed runs, and frame for frame once decoded when every
// other run writes its lengths in a longer form than needed, which a copied
// frame keeps. Seeds live in testdata/fuzz: empty keys and values, values of
// 128 bytes and more, and one key in every run.
func FuzzMergePass(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		groups := fuzzRuns(data)
		canonical := make([]Run, len(groups))
		mixed := make([]Run, len(groups))
		for seq, g := range groups {
			run := buildRun(t, g)
			canonical[seq], mixed[seq] = Run{Data: run, Seq: seq}, Run{Data: run, Seq: seq}
			if seq%2 == 1 {
				mixed[seq].Data = longForm(t, run)
				if _, err := ValidateRun(mixed[seq].Data); err != nil {
					t.Fatalf("long-form run rejected: %v", err)
				}
			}
		}
		for _, combine := range []Combiner{nil, joinValues} {
			var want []byte
			keys := 0
			if err := MergeRuns(canonical, combine, func(kl kv.KeyList) error {
				want, keys = kv.AppendKeyList(want, kl), keys+1
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			got, n, err := mergePass(nil, canonical, combine)
			if err != nil || n != keys || !bytes.Equal(got, want) {
				t.Fatalf("combine %v: pass = %q, %d keys, %v; want %q, %d keys", combine != nil, got, n, err, want, keys)
			}
			got, n, err = mergePass(nil, mixed, combine)
			if err != nil || n != keys {
				t.Fatalf("combine %v, long-form runs: pass = %d keys, %v; want %d keys", combine != nil, n, err, keys)
			}
			if g, w := decodeRun(t, got), decodeRun(t, want); len(g) != len(w) {
				t.Fatalf("combine %v, long-form runs: %d frames, want %d", combine != nil, len(g), len(w))
			} else {
				for i := range w {
					if !bytes.Equal(g[i].Key, w[i].Key) || !valuesEqual(g[i].Values, w[i].Values) {
						t.Fatalf("combine %v, long-form runs: frame %d = %q %q, want %q %q", combine != nil, i, g[i].Key, g[i].Values, w[i].Key, w[i].Values)
					}
				}
			}
		}
	})
}

// passRuns returns n TeraSort-shaped runs of up to keys keys each: random
// 10-byte keys with one 90-byte value, every run drawing from one pool of
// 4 x n x keys keys so that some keys repeat across runs.
func passRuns(tb testing.TB, n, keys int) (runs []Run, size int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	pool := make([]string, 4*n*keys)
	for i := range pool {
		k := make([]byte, 10)
		rng.Read(k)
		pool[i] = string(k)
	}
	value := bytes.Repeat([]byte{'v'}, 90)
	for seq := 0; seq < n; seq++ {
		ks := make([]string, keys)
		for i := range ks {
			ks[i] = pool[rng.Intn(len(pool))]
		}
		sort.Strings(ks)
		ks = slices.Compact(ks)
		var data []byte
		for _, k := range ks {
			data = kv.AppendKeyList(data, kv.KeyList{Key: []byte(k), Values: [][]byte{value}})
		}
		runs, size = append(runs, Run{Data: data, Seq: seq}), size+len(data)
	}
	return runs, size
}

// TestMergePassAllocs: a merge pass over a merge factor's worth of runs
// builds no value list and keeps its frontier on the stack, so the one thing
// it allocates is the output buffer.
func TestMergePassAllocs(t *testing.T) {
	runs, size := passRuns(t, 10, 500)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := mergePass(make([]byte, 0, size), runs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a merge pass over 10 runs allocates %.0f times, want 1 (its output buffer)", allocs)
	}
}

// BenchmarkMergeRuns is the merge rung alone: 10 TeraSort-shaped runs merged
// into the value lists a reducer reads (final, what the reduce side's last
// merge and MPI-D's receiver do) and into one run (pass, an intermediate
// merge pass).
func BenchmarkMergeRuns(b *testing.B) {
	runs, size := passRuns(b, 10, 2000)
	b.ResetTimer()
	b.Run("final", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := MergeRuns(runs, nil, func(kv.KeyList) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pass", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		out := make([]byte, 0, size)
		for i := 0; i < b.N; i++ {
			var err error
			if out, _, err = mergePass(out[:0], runs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
