package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// FuzzArenaKeyWords holds keyWords to its promise: two keys of at most 16
// bytes have equal length and words exactly when they are equal, so a probe
// that compares words decides them. Longer keys still have equal words when
// equal, and the arena must file two keys under one entry exactly when they
// are equal, whatever their length. The committed corpus covers every load
// shape (lengths 0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17) and pairs that differ
// only in their middle byte, the byte the 1-3 byte loads and the overlapping
// 8-byte loads must not miss.
func FuzzArenaKeyWords(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		a0, a1 := keyWords(a)
		b0, b1 := keyWords(b)
		sameWords := len(a) == len(b) && a0 == b0 && a1 == b1
		equal := bytes.Equal(a, b)
		if equal && !sameWords {
			t.Fatalf("equal keys %q have words %#x %#x and %#x %#x", a, a0, a1, b0, b1)
		}
		if len(a) <= 16 && len(b) <= 16 && sameWords && !equal {
			t.Fatalf("keys %q and %q differ but share length and words %#x %#x", a, b, a0, a1)
		}
		buf := newArenaBuffer()
		buf.add(a, []byte{1}, nil)
		buf.add(b, []byte{2}, nil)
		want := 2
		if equal {
			want = 1
		}
		if len(buf.entries) != want {
			t.Fatalf("keys %q and %q filed under %d entries, want %d", a, b, len(buf.entries), want)
		}
	})
}

// TestKeyHashCoversEveryByte flips each byte of keys of every length from 0
// to 80, which spans every load shape and up to four 16-byte chunks before
// the last 16 bytes, and requires the table hash to change every time. A hash
// that takes a long key's last words from its first and last 8 bytes, not its
// last 16, misses bytes just past the last whole chunk.
func TestKeyHashCoversEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n <= 80; n++ {
		random := make([]byte, n)
		rng.Read(random)
		for _, key := range [][]byte{random, make([]byte, n), bytes.Repeat([]byte{'a'}, n)} {
			w0, w1 := keyWords(key)
			h := keyHash(key, w0, w1)
			for i := range key {
				for _, flip := range []byte{0x01, 0x80, 0xFF} {
					k := bytes.Clone(key)
					k[i] ^= flip
					w0, w1 := keyWords(k)
					if keyHash(k, w0, w1) == h {
						t.Fatalf("length %d: flipping byte %d of %x by %#x leaves keyHash at %#x", n, i, key, flip, h)
					}
				}
			}
		}
	}
}

// TestAddRefusesPairPastMaxArena: a pair that would take the arena past
// maxArena is refused, whichever way the buffer would hold it, and the buffer
// is left as it was, so no int32 offset wraps. The bound is lowered to 64
// bytes for the test.
func TestAddRefusesPairPastMaxArena(t *testing.T) {
	defer func(n int) { maxArena = n }(maxArena)
	maxArena = 64
	huge := bytes.Repeat([]byte{'x'}, 61)
	for _, shape := range []struct {
		name               string
		ungrouped, perPair bool
	}{{"grouped", false, false}, {"probing", true, false}, {"per pair", true, true}} {
		b := newArenaBuffer()
		b.ungrouped, b.perPair = shape.ungrouped, shape.perPair
		b.add([]byte("k"), []byte("v"), nil)
		if _, err := b.add([]byte("k"), huge, nil); err == nil || !strings.Contains(err.Error(), "past") {
			t.Fatalf("%s: add of a %d-byte value: err = %v, want the arena bound", shape.name, len(huge), err)
		}
		if got := snapshot(t, b); b.bytes() != 2 || len(got) != 1 || len(got[0].values) != 1 {
			t.Fatalf("%s: after the refused pair the buffer holds %d bytes and %d keys, want 2 and 1", shape.name, b.bytes(), len(got))
		}
	}
}

// TestMaterializeRejectsCorruptBlock: a length prefix that claims more bytes
// than the block holds must stop the decode with the corrupt-block panic,
// one-byte prefix or not, never yield a value that runs past its block.
func TestMaterializeRejectsCorruptBlock(t *testing.T) {
	corruptions := []struct {
		name string
		at   int  // byte of the block "\x03abc\x03abc" to overwrite
		with byte // the prefix it becomes
	}{
		{"first record past the block", 0, 0x7F},
		{"last record past the block", 4, 4},
		{"multi-byte prefix past the block", 4, 0x8F}, // VLong: a one-byte length follows
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			b := newArenaBuffer()
			b.add([]byte("k"), []byte("abc"), nil)
			b.add([]byte("k"), []byte("abc"), nil)
			e := &b.entries[0]
			b.arena[int(e.valOff)+c.at] = c.with
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "mpid: corrupt send-buffer block") {
					t.Fatalf("materialize of a corrupt block: recovered %q, want the corrupt-block panic", msg)
				}
			}()
			vs := b.materialize(e)
			t.Fatalf("materialize returned %q from a corrupt block", vs)
		})
	}
}

// TestArenaRunsCountRepeatsOutsideTheBlock: in a combining buffer, a key that
// keeps receiving the same small value holds its copies as a count, leaving
// the block as it was, while nvals, bytes() and wireBytes() count every copy.
// A different value writes the copies out ahead of itself, a value too long
// to pack repeats through the block, and a spill without a fold ships the
// copies as the records they stand for, wireBytes() bytes in all.
func TestArenaRunsCountRepeatsOutsideTheBlock(t *testing.T) {
	b, ref := newArenaBuffer(), refBuffer{}
	send := func(value []byte, n int) {
		for range n {
			b.add([]byte("k"), value, sumCombiner)
			ref.add([]byte("k"), value, sumCombiner)
		}
	}
	send([]byte{1}, 100)
	e, r := &b.entries[0], &b.runs[0]
	if e.valLen != 2 || r.n != 99 || e.nvals != 100 {
		t.Fatalf("100 copies of one value: block %d bytes, run %d copies, nvals %d; want 2, 99, 100", e.valLen, r.n, e.nvals)
	}
	send([]byte{2}, 1)
	if e.valLen != 2*101 || r.n != 0 {
		t.Fatalf("after a different value: block %d bytes, run %d copies; want %d, 0", e.valLen, r.n, 2*101)
	}
	long := []byte("\x03sevens") // 7 bytes: one more than a run packs
	send(long, 3)
	if e.valLen != 2*101+3*int32(len(long)+1) || r.n != 0 {
		t.Fatalf("after three 7-byte values: block %d bytes, run %d copies; want %d, 0", e.valLen, r.n, 2*101+3*(len(long)+1))
	}
	send(long[:5], 20)
	checkAgainstRef(t, "before the spill", b, ref, false)
	parts := [][]byte{nil}
	wire := b.wireBytes()
	b.realign(parts, nil, false)
	if len(parts[0]) != wire {
		t.Fatalf("wireBytes() = %d, the spill wrote %d", wire, len(parts[0]))
	}
	streamsEqual(t, map[int][]streamEntry{0: ref.sorted()}, map[int][]streamEntry{0: decodeFrames(t, parts[0])})
}

// TestArenaFoldRestartsRunFromLastOutput: after a fold the block ends with the
// combiner's last output, so that value, and no other, may seed the next run.
// The combiner here puts the incoming value first and a marker last; a run
// seeded from the first output would count the pairs that follow as copies of
// the marker.
func TestArenaFoldRestartsRunFromLastOutput(t *testing.T) {
	lastThenMarker := func(_ []byte, values [][]byte) [][]byte {
		return [][]byte{values[len(values)-1], {0}}
	}
	b, ref := newArenaBuffer(), refBuffer{}
	for i := 0; i < 3*combineEvery; i++ {
		b.add([]byte("k"), []byte{1}, lastThenMarker)
		ref.add([]byte("k"), []byte{1}, lastThenMarker)
	}
	checkAgainstRef(t, "after three folds", b, ref, true)
	parts := [][]byte{nil}
	b.realign(parts, lastThenMarker, false)
	want := kv.AppendKeyList(nil, kv.KeyList{Key: []byte("k"), Values: lastThenMarker(nil, ref["k"])})
	if !bytes.Equal(parts[0], want) {
		t.Fatalf("spill after the folds is %q, want %q", parts[0], want)
	}
}
