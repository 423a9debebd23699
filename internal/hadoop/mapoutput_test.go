package hadoop

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
)

// spillRecord is one emitted pair of a fuzzed map task.
type spillRecord struct {
	key, value string
	part       int
}

// spillInput encodes a map task for FuzzHadoopSpill: the partition count,
// the combiner mode, then per record its key, value and partition. A key or
// value is a length byte and that many bytes; a length byte with its top bit
// set adds longPad after them, making a field of 128 bytes or more.
func spillInput(nParts, mode byte, recs ...spillRecord) []byte {
	b := []byte{nParts - 1, mode}
	field := func(s string) {
		if short, ok := strings.CutSuffix(s, longPad); ok {
			b = append(append(b, 0x80|byte(len(short))), short...)
			return
		}
		b = append(append(b, byte(len(s))), s...)
	}
	for _, r := range recs {
		field(r.key)
		field(r.value)
		b = append(b, byte(r.part))
	}
	return b
}

// longPad ends a fuzzed key or value whose length byte has its top bit set.
var longPad = strings.Repeat("p", 128)

func decodeSpillInput(b []byte) (nParts int, combine core.CombineFunc, recs []spillRecord) {
	if len(b) < 2 {
		return 1, nil, nil
	}
	nParts = int(b[0]%4) + 1
	switch b[1] % 3 {
	case 1: // one value per key, all values concatenated
		combine = func(key []byte, values [][]byte) [][]byte {
			return [][]byte{bytes.Join(values, nil)}
		}
	case 2: // appends to its values argument and to a value
		combine = func(key []byte, values [][]byte) [][]byte {
			return append(values, append(values[0], '+'))
		}
	}
	// field decodes a key or value of fewer than limit bytes before its padding.
	field := func(limit int) (string, bool) {
		n := int(b[0]&0x7F) % limit
		if len(b) < 1+n+1 {
			return "", false
		}
		s := string(b[1 : 1+n])
		if b[0]&0x80 != 0 {
			s += longPad
		}
		b = b[1+n:]
		return s, true
	}
	for b = b[2:]; len(b) > 0; {
		key, ok := field(20)
		if !ok {
			break
		}
		value, ok := field(8)
		if !ok {
			break
		}
		recs = append(recs, spillRecord{key, value, int(b[0]) % nParts})
		b = b[1:]
	}
	return nParts, combine, recs
}

// referenceSpill is the map side before the output buffer: pairs grouped
// per partition in a map, keys sorted as strings, each value a copy.
func referenceSpill(nParts int, combine core.CombineFunc, recs []spillRecord) [][]byte {
	groups := make([]map[string][][]byte, nParts)
	order := make([][]string, nParts)
	for i := range groups {
		groups[i] = make(map[string][][]byte)
	}
	for _, r := range recs {
		if _, seen := groups[r.part][r.key]; !seen {
			order[r.part] = append(order[r.part], r.key)
		}
		groups[r.part][r.key] = append(groups[r.part][r.key], []byte(r.value))
	}
	segs := make([][]byte, nParts)
	for p := range segs {
		sort.Strings(order[p])
		for _, k := range order[p] {
			values := groups[p][k]
			if combine != nil {
				values = combine([]byte(k), values)
			}
			segs[p] = kv.AppendKeyList(segs[p], kv.KeyList{Key: []byte(k), Values: values})
		}
	}
	return segs
}

// FuzzHadoopSpill holds the map output buffer's segments byte-identical to
// the reference's: key order, value order within a key (emission order) and
// the combiner's view of both. Every segment fills its allocation exactly,
// so the size taken from the sorted index before writing is right.
func FuzzHadoopSpill(f *testing.F) {
	f.Add(spillInput(2, 0, spillRecord{"", "a", 0}, spillRecord{"x", "b", 1}, spillRecord{"", "c", 0}, spillRecord{"\x00", "d", 0}))
	f.Add(spillInput(1, 0,
		spillRecord{"abcdefghijklmnopq", "17", 0}, spillRecord{"abcdefghijklmnop", "16", 0},
		spillRecord{"abcdefghi", "9", 0}, spillRecord{"abcdefgh", "8", 0}, spillRecord{"abcdefg", "7", 0},
		spillRecord{"abcdefghi", "9b", 0}, spillRecord{"abcdefgh\x00", "9z", 0}, spillRecord{"abcdefghijklmnop", "16b", 0}))
	f.Add(spillInput(1, 0, spillRecord{"a\x00", "1", 0}, spillRecord{"a", "2", 0}, spillRecord{"a\x00\x00", "3", 0}, spillRecord{"a", "4", 0}))
	f.Add(spillInput(2, 0,
		spillRecord{"k", "v1", 0}, spillRecord{"j", "w1", 1}, spillRecord{"k", "v2", 0}, spillRecord{"long-key-1", "x1", 0},
		spillRecord{"k", "v3", 0}, spillRecord{"long-key-1", "x2", 0}, spillRecord{"j", "w2", 1}, spillRecord{"k", "v4", 0}))
	f.Add(spillInput(3, 1, spillRecord{"p0", "a", 0}, spillRecord{"p2", "b", 2}, spillRecord{"p0", "c", 0}, spillRecord{"p2", "d", 2}))
	f.Add(spillInput(1, 2, spillRecord{"a", "1", 0}, spillRecord{"a", "2", 0}, spillRecord{"b", "3", 0}, spillRecord{"b", "4", 0},
		spillRecord{"abcdefghij", "5", 0}, spillRecord{"abcdefghij", "6", 0}, spillRecord{"c", "7", 0}))
	f.Add(spillInput(1, 2, spillRecord{"a", "1", 0}, spillRecord{"b", "2", 0}, spillRecord{"c", "3", 0}))
	f.Add(spillInput(2, 0,
		spillRecord{"k" + longPad, "v" + longPad, 0}, spillRecord{"k", "short", 0}, spillRecord{"k" + longPad, longPad, 0},
		spillRecord{"j" + longPad, "w", 1}, spillRecord{"k" + longPad, "", 0}, spillRecord{longPad, "x" + longPad, 1}))
	f.Add(spillInput(1, 1, spillRecord{"k" + longPad, "v" + longPad, 0}, spillRecord{"k" + longPad, "w", 0}, spillRecord{"k", "x", 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		nParts, combine, recs := decodeSpillInput(data)
		want := referenceSpill(nParts, combine, recs)
		out := newMapOutput(len(data))
		for _, r := range recs {
			if err := out.add(r.part, []byte(r.key), []byte(r.value)); err != nil {
				t.Fatal(err)
			}
		}
		got := out.spill(nParts, combine)
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("partition %d: segment %q, want %q", p, got[p], want[p])
			}
			if len(got[p]) != cap(got[p]) {
				t.Fatalf("partition %d: segment of %d bytes in an allocation of %d", p, len(got[p]), cap(got[p]))
			}
		}
	})
}
