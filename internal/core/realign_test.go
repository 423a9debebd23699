package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// fuzzPairs decodes fuzz input as pairs: a byte holding the key's length
// (mod 24), two little-endian bytes holding the value's (mod 512), then the
// key and value bytes, the last pair cut short by the end of the input.
func fuzzPairs(data []byte) []kv.Pair {
	var pairs []kv.Pair
	for len(data) >= 3 {
		klen := int(data[0]) % 24
		vlen := int(binary.LittleEndian.Uint16(data[1:])) % 512
		data = data[3:]
		klen = min(klen, len(data))
		key := data[:klen]
		data = data[klen:]
		vlen = min(vlen, len(data))
		pairs = append(pairs, kv.Pair{Key: key, Value: data[:vlen]})
		data = data[vlen:]
	}
	return pairs
}

func encodeFuzzPairs(pairs []kv.Pair) []byte {
	var out []byte
	for _, p := range pairs {
		out = append(out, byte(len(p.Key)))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Value)))
		out = append(append(out, p.Key...), p.Value...)
	}
	return out
}

// joinCombiner folds a list into one value that records every input, so a
// lost, doubled or reordered value shows in the bytes; it stays pure on
// whatever bytes the fuzzer supplies.
func joinCombiner(_ []byte, values [][]byte) [][]byte {
	return [][]byte{bytes.Join(values, []byte{'|'})}
}

// refRealign is the partition buffers a spill must produce, derived from the
// specification alone: buffer into refBuffer, fold every key through the
// combiner and sort its values when configured, and append each key's list
// with kv.AppendKeyList to its partition, keys in bytes.Compare order.
func refRealign(pairs []kv.Pair, nParts int, combine CombineFunc, sortValues bool) [][]byte {
	ref := refBuffer{}
	for _, p := range pairs {
		ref.add(p.Key, p.Value, combine)
	}
	parts := make([][]byte, nParts)
	for _, e := range ref.sorted() {
		if combine != nil {
			e.values = combine(e.key, e.values)
		}
		if sortValues {
			slices.SortFunc(e.values, bytes.Compare)
		}
		p := HashPartitioner(e.key, nParts)
		parts[p] = kv.AppendKeyList(parts[p], kv.KeyList{Key: e.key, Values: e.values})
	}
	return parts
}

// FuzzRealign holds the spill's realign, in every send variant, to
// kv.AppendKeyList over a plain sorted map: the arena is filled from the
// decoded pairs as Init sets it up for the variant (grouped only for a
// combiner or the value sort), and its partition buffers must equal the
// reference byte for byte. Without either, the arena also runs with its
// probing switched off and on at fixed points, as its sampling windows switch
// it, so that one key's pairs lie in several entries. The same arena then
// realigns the first half of the pairs, over the scratch the first spill left
// behind. Seeds live in testdata/fuzz: duplicate keys, empty keys and values,
// values either side of the one-byte length prefix (127, 128, 129 and 300
// bytes), and "a" against "a\x00".
func FuzzRealign(f *testing.F) {
	variants := []struct {
		name       string
		combine    CombineFunc
		sortValues bool
		// flips lists the pairs before which probing is switched off, on,
		// off again and so on.
		flips func(pairs int) []int
	}{
		{"plain", nil, false, nil},
		{"plain/unprobed", nil, false, func(int) []int { return []int{0} }},
		{"plain/flipped", nil, false, func(n int) []int { return []int{n / 4, n / 2, 3 * n / 4} }},
		{"combiner", joinCombiner, false, nil},
		{"sortValues", nil, true, nil},
		{"combiner+sortValues", joinCombiner, true, nil},
	}
	const nParts = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := fuzzPairs(data)
		for _, v := range variants {
			b := newArenaBuffer()
			b.ungrouped = v.combine == nil && !v.sortValues
			for _, batch := range [][]kv.Pair{pairs, pairs[:len(pairs)/2]} {
				var flips []int
				if v.flips != nil {
					flips = v.flips(len(batch))
				}
				for i, p := range batch {
					for len(flips) > 0 && flips[0] == i {
						if b.perPair {
							b.probeAgain()
						} else {
							b.perPair = true
						}
						flips = flips[1:]
					}
					b.add(p.Key, p.Value, v.combine)
				}
				got := make([][]byte, nParts)
				if _, err := b.realign(got, HashPartitioner, v.combine, v.sortValues); err != nil {
					t.Fatal(err)
				}
				for p, want := range refRealign(batch, nParts, v.combine, v.sortValues) {
					if !bytes.Equal(got[p], want) {
						t.Fatalf("%s, %d pairs: partition %d is\n%q\nwant\n%q", v.name, len(batch), p, got[p], want)
					}
				}
				b.reset()
			}
		}
	})
}

// TestUngroupedBufferProbesInWindows walks an ungrouped buffer through its
// windows: keys that repeat keep it probing; a window of distinct keys stops
// it for unprobedPairs pairs, after which it probes again over an emptied
// table that must grow without taking back an entry older than the stretch.
// Keys of the first window recur in each stretch, so each lies in three
// entries, and the spill must still list every key's values in send order.
func TestUngroupedBufferProbesInWindows(t *testing.T) {
	b := newArenaBuffer()
	b.ungrouped = true
	ref := refBuffer{}
	seq := 0
	send := func(key string) {
		v := []byte(fmt.Sprint(seq))
		seq++
		b.add([]byte(key), v, nil)
		ref.add([]byte(key), v, nil)
	}
	for i := 0; i < 4*sampleSize; i++ {
		send(fmt.Sprintf("hot-%d", i%50))
	}
	if b.perPair {
		t.Fatal("50 keys sent round robin stopped the probing")
	}
	b.reset()
	ref = refBuffer{}
	for i := 0; i < sampleSize; i++ {
		send(fmt.Sprintf("k%05d", i))
	}
	if !b.perPair {
		t.Fatal("a window of distinct keys left the probing on")
	}
	for i := 0; i < unprobedPairs; i++ {
		send(fmt.Sprintf("k%05d", (i+sampleSize/2)%(sampleSize+unprobedPairs)))
	}
	if b.perPair {
		t.Fatalf("still unprobed after %d pairs", unprobedPairs)
	}
	for i, n := 0, len(b.slots); i < 2*n; i++ {
		send(fmt.Sprintf("twice-%d", i/2)) // grows the emptied table, probing
	}
	for i := 0; i < sampleSize; i++ {
		send(fmt.Sprintf("k%05d", i))
	}
	if got, want := b.bytes(), ref.payload(true); got != want {
		t.Fatalf("bytes() = %d, reference payload %d", got, want)
	}
	streamsEqual(t, map[int][]streamEntry{0: ref.sorted()}, map[int][]streamEntry{0: snapshot(t, b)})
}
