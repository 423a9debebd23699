package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// dupKeyResult builds a Result whose output holds dup copies of every key
// with distinct values, spread round-robin across reducers, with each
// reducer's value order shuffled by seed. Two results built from different
// seeds hold the same pair multiset in different physical layouts — exactly
// what two engines (or two runs of one engine) hand to Pairs().
func dupKeyResult(nKeys, dup, reducers int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{ByReducer: make([][]kv.Pair, reducers)}
	for k := 0; k < nKeys; k++ {
		key := []byte(fmt.Sprintf("key-%03d", k))
		r := k % reducers // same key always lands on one reducer
		for d := 0; d < dup; d++ {
			res.ByReducer[r] = append(res.ByReducer[r], kv.Pair{
				Key:   key,
				Value: []byte(fmt.Sprintf("val-%03d", d)),
			})
		}
	}
	for r := range res.ByReducer {
		rng.Shuffle(len(res.ByReducer[r]), func(i, j int) {
			res.ByReducer[r][i], res.ByReducer[r][j] = res.ByReducer[r][j], res.ByReducer[r][i]
		})
	}
	return res
}

// TestPairsCanonicalWithDuplicateKeys is the regression test for the
// nondeterministic canonicalization bug: Pairs() used an unstable
// sort.Slice comparing keys only, so any workload with duplicate output
// keys rendered its equal-key values in layout-dependent order and the
// cross-engine equality gates flaked. The canonical order is (key, value).
func TestPairsCanonicalWithDuplicateKeys(t *testing.T) {
	res := dupKeyResult(40, 12, 3, 1)
	pairs := res.Pairs()
	if len(pairs) != 40*12 {
		t.Fatalf("got %d pairs, want %d", len(pairs), 40*12)
	}
	for i := 1; i < len(pairs); i++ {
		c := kv.Compare(pairs[i-1].Key, pairs[i].Key)
		if c > 0 {
			t.Fatalf("pair %d: key %q after %q", i, pairs[i].Key, pairs[i-1].Key)
		}
		if c == 0 && kv.Compare(pairs[i-1].Value, pairs[i].Value) > 0 {
			t.Fatalf("pair %d: duplicate key %q values out of order: %q after %q",
				i, pairs[i].Key, pairs[i].Value, pairs[i-1].Value)
		}
	}
}

// TestPairsDeterministicAcrossLayouts asserts the property the equality
// gates depend on: two results holding the same multiset of output pairs in
// different reducer-local orders canonicalize to the identical sequence.
func TestPairsDeterministicAcrossLayouts(t *testing.T) {
	want := dupKeyResult(25, 8, 4, 7).Pairs()
	for seed := int64(8); seed < 16; seed++ {
		got := dupKeyResult(25, 8, 4, seed).Pairs()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d pairs, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i].Key, got[i].Key) || !bytes.Equal(want[i].Value, got[i].Value) {
				t.Fatalf("seed %d: pair %d is %s, want %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCombinerFromReducerCombines covers the sound case: an order-
// insensitive same-key reducer combines, so the combiner does not decline.
func TestCombinerFromReducerCombines(t *testing.T) {
	in := [][]byte{kv.AppendVLong(nil, 1), kv.AppendVLong(nil, 1), kv.AppendVLong(nil, 3)}
	out := CombinerFromReducer(wordCountReducer)([]byte("w"), in)
	if len(out) != 1 {
		t.Fatalf("combined to %d values, want 1", len(out))
	}
	if n, _, _ := kv.ReadVLong(out[0]); n != 5 {
		t.Fatalf("combined count = %d, want 5", n)
	}
}

// TestCombinerFromReducerKeyMismatchFallsBack is the regression test for
// the silent-corruption bug: a derived reducer emitting under a different
// key than its input had its output re-filed under the input key. The
// combiner must detect the mismatch and decline: return its values
// argument itself, which is how an engine tells a declined combine from a
// done one. A failing reducer declines the same way.
func TestCombinerFromReducerKeyMismatchFallsBack(t *testing.T) {
	// A reducer that re-keys its output — sound as a reducer, unsound as a
	// combiner (e.g. an inverting job emitting (value, key)).
	rekeying := ReducerFunc(func(key []byte, values [][]byte, emit Emit) error {
		return emit(append(append([]byte(nil), key...), '!'), kv.AppendVLong(nil, int64(len(values))))
	})
	failing := ReducerFunc(func([]byte, [][]byte, Emit) error { return fmt.Errorf("no") })
	in := [][]byte{[]byte("a"), []byte("b")}
	for name, r := range map[string]Reducer{"rekeying": rekeying, "failing": failing} {
		out := CombinerFromReducer(r)([]byte("k"), in)
		if len(out) != len(in) || &out[0] != &in[0] {
			t.Fatalf("%s: returned %q, want its values argument itself", name, out)
		}
		if !bytes.Equal(out[0], []byte("a")) || !bytes.Equal(out[1], []byte("b")) {
			t.Fatalf("%s: values rewritten to %q", name, out)
		}
	}
}
