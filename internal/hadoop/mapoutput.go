package hadoop

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
)

// mapOutput is a map task's output as Hadoop 0.20's MapOutputBuffer holds
// it: every emitted pair appended once to buf, and one fixed-size index
// record per pair. The spill sorts the index, never the bytes.
type mapOutput struct {
	buf []byte
	idx []mapRecord
}

// mapRecord indexes one pair in mapOutput.buf. prefix is the key's kv.Prefix,
// its first eight bytes, so prefixes order keys up to their eighth byte.
type mapRecord struct {
	prefix                uint64
	part, off, klen, vlen int32
}

var errMapOutputTooLarge = errors.New("map output exceeds 2 GiB")

// newMapOutput presizes for a split of n bytes: an identity map emits its
// input, WordCount about as much. The index guesses 64-byte records and
// grows when they are smaller.
func newMapOutput(n int) *mapOutput {
	return &mapOutput{buf: make([]byte, 0, n), idx: make([]mapRecord, 0, n/64)}
}

func (m *mapOutput) add(part int, key, value []byte) error {
	off := len(m.buf)
	if off+len(key)+len(value) > math.MaxInt32 {
		return errMapOutputTooLarge
	}
	m.buf = append(append(m.buf, key...), value...)
	m.idx = append(m.idx, mapRecord{kv.Prefix(key), int32(part), int32(off), int32(len(key)), int32(len(value))})
	return nil
}

func (m *mapOutput) key(r mapRecord) []byte {
	end := r.off + r.klen
	return m.buf[r.off:end:end]
}

func (m *mapOutput) value(r mapRecord) []byte {
	start := r.off + r.klen
	end := start + r.vlen
	return m.buf[start:end:end]
}

// sort orders the index by (partition, key, emission order) and returns each
// partition's record count. A stable LSD byte radix runs over the prefixes,
// skipping a byte every key agrees on, then one stable pass over the
// partition. A run of equal prefixes is settled by the full keys, emission
// order breaking ties, when it holds a key longer than eight bytes or keys of
// different lengths (shorter keys with one prefix differ only in length); a
// run of one short key is already in emission order.
func (m *mapOutput) sort(nParts int) []int {
	src := m.idx
	dst := make([]mapRecord, len(src))
	var hist [8][256]int32
	for _, r := range src {
		for d := range hist {
			hist[d][byte(r.prefix>>(8*d))]++
		}
	}
	for d := range hist {
		h, shift := &hist[d], 8*d
		if len(src) == 0 || h[byte(src[0].prefix>>shift)] == int32(len(src)) {
			continue
		}
		off := int32(0)
		for v, c := range h {
			h[v], off = off, off+c
		}
		for _, r := range src {
			v := byte(r.prefix >> shift)
			dst[h[v]] = r
			h[v]++
		}
		src, dst = dst, src
	}
	counts, next := make([]int, nParts), make([]int, nParts)
	for _, r := range src {
		counts[r.part]++
	}
	for p := 1; p < nParts; p++ {
		next[p] = next[p-1] + counts[p-1]
	}
	for _, r := range src {
		dst[next[r.part]] = r
		next[r.part]++
	}
	m.idx = dst
	for i := 0; i < len(dst); {
		j, long, mixed := i+1, dst[i].klen > 8, false
		for ; j < len(dst) && dst[j].prefix == dst[i].prefix && dst[j].part == dst[i].part; j++ {
			long = long || dst[j].klen > 8
			mixed = mixed || dst[j].klen != dst[i].klen
		}
		if long || mixed {
			slices.SortFunc(dst[i:j], func(x, y mapRecord) int {
				return cmp.Or(bytes.Compare(m.key(x), m.key(y)), cmp.Compare(x.off, y.off))
			})
		}
		i = j
	}
	return counts
}

// spill returns one segment per partition, nil for an empty one: framed key
// lists in key order, each key's values in emission order, through combine
// when it is set. Each segment is one allocation of exactly its size, and
// without a combiner its frames are written straight from buf, sized by a
// pass over the sorted index. Only combine sees a value list: the list and
// its values alias the buffer and are cap-limited, so an append to either
// cannot reach the next record.
func (m *mapOutput) spill(nParts int, combine core.CombineFunc) [][]byte {
	counts := m.sort(nParts)
	segs := make([][]byte, nParts)
	var vals [][]byte
	var lists []kv.KeyList
	if combine != nil {
		vals = make([][]byte, 0, slices.Max(counts))
		lists = make([]kv.KeyList, 0, slices.Max(counts))
	}
	idx := m.idx
	for p, n := range counts {
		recs := idx[:n]
		idx = idx[n:]
		if n == 0 {
			continue
		}
		if combine != nil {
			segs[p] = m.combined(recs, combine, vals[:0], lists[:0])
			continue
		}
		size := 0
		for i := 0; i < n; {
			j := m.keyEnd(recs, i)
			size += kv.BytesSize(m.key(recs[i])) + kv.VLongSize(int64(j-i))
			for _, r := range recs[i:j] {
				size += kv.VLongSize(int64(r.vlen)) + int(r.vlen)
			}
			i = j
		}
		seg := make([]byte, 0, size)
		for i := 0; i < n; {
			j := m.keyEnd(recs, i)
			seg = kv.AppendVLong(kv.AppendBytes(seg, m.key(recs[i])), int64(j-i))
			for _, r := range recs[i:j] {
				seg = kv.AppendBytes(seg, m.value(r))
			}
			i = j
		}
		segs[p] = seg
	}
	return segs
}

// combined frames one partition's sorted records through combine, vals and
// lists lending their capacity to the value lists and the combined keys.
func (m *mapOutput) combined(recs []mapRecord, combine core.CombineFunc, vals [][]byte, lists []kv.KeyList) []byte {
	size := 0
	for i := 0; i < len(recs); {
		j, start := m.keyEnd(recs, i), len(vals)
		for _, r := range recs[i:j] {
			vals = append(vals, m.value(r))
		}
		kl := kv.KeyList{Key: m.key(recs[i]), Values: vals[start:len(vals):len(vals)]}
		kl.Values = combine(kl.Key, kl.Values)
		lists = append(lists, kl)
		size += kv.KeyListSize(kl)
		i = j
	}
	seg := make([]byte, 0, size)
	for _, kl := range lists {
		seg = kv.AppendKeyList(seg, kl)
	}
	return seg
}

// keyEnd returns the end of the records from recs[i] on that share its key.
// Equal prefixes and lengths decide keys of up to eight bytes.
func (m *mapOutput) keyEnd(recs []mapRecord, i int) int {
	first := recs[i]
	j := i + 1
	for ; j < len(recs) && recs[j].prefix == first.prefix && recs[j].klen == first.klen &&
		(first.klen <= 8 || bytes.Equal(m.key(recs[j]), m.key(first))); j++ {
	}
	return j
}
