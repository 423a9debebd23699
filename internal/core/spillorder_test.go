package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkSpillOrder buffers keys into b and requires its sort order to hold
// exactly the distinct keys in bytes.Compare order — the oracle is sort.Slice
// over a plain copy, which shares nothing with the arena's radix.
func checkSpillOrder(t testing.TB, b *arenaBuffer, keys [][]byte) {
	t.Helper()
	distinct := make(map[string]bool, len(keys))
	var want [][]byte
	for _, k := range keys {
		b.add(k, []byte{1}, nil)
		if !distinct[string(k)] {
			distinct[string(k)] = true
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	order := b.sortOrder()
	if len(order) != len(want) {
		t.Fatalf("sorted %d keys, want %d", len(order), len(want))
	}
	for i, sk := range order {
		if key, _ := b.keyOf(sk); !bytes.Equal(key, want[i]) {
			t.Fatalf("position %d: sorted %q, bytes.Compare order has %q", i, key, want[i])
		}
	}
}

func randomKeys(rng *rand.Rand, n, size int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, size)
		rng.Read(keys[i])
	}
	return keys
}

// spillOrderCases are the key shapes the radix and its tie pass must get
// right between them; the fuzz target below is seeded from the same table.
func spillOrderCases() map[string][][]byte {
	rng := rand.New(rand.NewSource(18))
	sharedLong := make([][]byte, 300)
	for i := range sharedLong {
		// Three 8-byte prefixes, tails of varying length after them.
		sharedLong[i] = []byte(fmt.Sprintf("prefix-%d:%0*d", i%3, 1+i%5, rng.Intn(1000)))
	}
	onePrefix := make([][]byte, 200)
	for i := range onePrefix {
		onePrefix[i] = append([]byte("samepref"), randomKeys(rng, 1, rng.Intn(6))[0]...)
	}
	// The highest differing bit is the first byte's top one, so 100 keys that
	// start with two zero bytes share one radix bucket, past the insertion
	// cutoff.
	oneBucket := [][]byte{{0xFF}}
	for _, k := range randomKeys(rng, 100, 8) {
		oneBucket = append(oneBucket, append([]byte{0, 0}, k...))
	}
	// Prefixes that differ only in their lowest byte bucket on their lowest
	// bits; some keys run past eight bytes, so ties remain.
	lowByte := make([][]byte, 60)
	for i := range lowByte {
		lowByte[i] = append([]byte("abcdefg"), byte(rng.Intn(256)))
		if i%3 == 0 {
			lowByte[i] = append(lowByte[i], byte(i))
		}
	}
	return map[string][][]byte{
		"random 10-byte": randomKeys(rng, 10_000, 10),
		// Ties are buffered longest first: the radix is stable, so keys
		// buffered in sorted order would come out right without a tie pass.
		"shorter than 8":   {[]byte("a\x00\x00"), []byte("a\x00"), []byte("a"), []byte(""), []byte("b"), []byte("ab"), {0, 0}, {0}, {0xFF}, []byte("abcdefg\x00\x00"), []byte("abcdefg\x00"), []byte("abcdefg")},
		"shared 8+ prefix": sharedLong,
		"one prefix":       onePrefix, // no differing bit: ties decide all
		"one big bucket":   oneBucket,
		"low byte differs": lowByte,
		"one byte differs": {[]byte("aaaaaaaa1"), []byte("aaaaabaa0"), []byte("aaaaaaaa"), []byte("aaaaabaa"), []byte("aaaaacaa")},
		"n=0":              {},
		"n=1":              {[]byte("only")},
		"n=2":              {[]byte("z"), []byte("a")},
		"n=2 tie":          {[]byte("a\x00"), []byte("a")},
	}
}

// TestSpillOrderIsBytesCompare holds the radix spill sort to bytes.Compare
// order. Deleting the equal-prefix pass (settleTies) fails "shorter than 8",
// "shared 8+ prefix", "one prefix", "one byte differs" and "n=2 tie"; the
// others never tie on a prefix.
func TestSpillOrderIsBytesCompare(t *testing.T) {
	for name, keys := range spillOrderCases() {
		t.Run(name, func(t *testing.T) { checkSpillOrder(t, newArenaBuffer(), keys) })
	}
	// One arena across spills of shrinking size: the sort records and the
	// radix scratch left by a larger spill must not leak into a smaller one.
	t.Run("stale scratch after reset", func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		b := newArenaBuffer()
		for _, n := range []int{5000, 300, 2, 0, 1, 700} {
			checkSpillOrder(t, b, randomKeys(rng, n, 1+rng.Intn(12)))
			b.reset()
		}
	})
}

// fuzzKeys decodes fuzz input as length-prefixed keys: one byte holding the
// length (mod 20) and then that many key bytes, the last key cut short by
// the end of the input.
func fuzzKeys(data []byte) [][]byte {
	var keys [][]byte
	for len(data) > 0 {
		n := min(int(data[0])%20, len(data)-1)
		keys = append(keys, data[1:1+n])
		data = data[1+n:]
	}
	return keys
}

func encodeFuzzKeys(keys [][]byte) []byte {
	var out []byte
	for _, k := range keys {
		out = append(append(out, byte(len(k))), k...)
	}
	return out
}

// FuzzSpillOrder checks every decoded key set twice through one arena: the
// whole set, then — after a reset — its first half, over the scratch the
// larger sort left behind.
func FuzzSpillOrder(f *testing.F) {
	for _, keys := range spillOrderCases() {
		if len(keys) <= 300 {
			f.Add(encodeFuzzKeys(keys))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzKeys(data)
		b := newArenaBuffer()
		checkSpillOrder(t, b, keys)
		b.reset()
		checkSpillOrder(t, b, keys[:len(keys)/2])
	})
}
