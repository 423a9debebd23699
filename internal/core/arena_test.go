package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
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
			b.valArena[int(e.valOff)+c.at] = c.with
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
