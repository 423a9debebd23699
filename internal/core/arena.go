package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/ict-repro/mpid/internal/kv"
)

// arenaBuffer is the mapper-side hash table of §IV.A: Send buffers pairs
// here, grouped by key, so the combiner can merge values locally before
// anything is serialized or transmitted. Everything lives in three flat
// slices that are reset — not reallocated — between spills:
//
//	keyArena  all key bytes, appended back to back
//	valArena  one block per entry, holding its values in insertion order,
//	          each a kv length-prefixed byte string — already their wire form
//	entries   one record per distinct key (one per pair once perPair): offsets
//	          into keyArena plus its block's offset, used length and capacity
//
// A key's first block is cut to fit its first value, so a key that never
// repeats (TeraSort) wastes nothing. A block that fills moves to the arena's
// end at twice the capacity; the blocks it leaves behind add up to less than
// the one it occupies. A combine fold writes its result back over the start
// of the key's own block, so a combining job's arena is bounded by distinct
// keys x combineEvery however many pairs pass through it.
//
// The table exists so that a combiner, or the value sort, sees all of a key's
// buffered values. When neither is configured (ungrouped, set at Init), it
// only saves the spill sorting a key once per pair, which pays while keys
// repeat, so the buffer watches what the table does for it. It probes in
// windows of sampleSize pairs; after a window in which more than three pairs
// in four made an entry of their own, it stops probing (perPair) and appends
// each pair as an entry of its own, its key stored with it. After
// unprobedPairs pairs it probes again over an emptied table, so that a job
// whose keys start repeating halfway through a cycle (a join reading one
// table's rows, then the other's) is grouped again. A key may thus hold
// several entries, each younger than the last; the spill's sort makes them
// adjacent, in insertion order, and they share one frame.
//
// The hash table itself is open addressing with linear probing over int32
// entry indices, so lookups touch no pointers and growth is a flat rehash.
// Each entry holds its key as two words (keyWords), which with its length are
// a key of at most 16 bytes: a probe decides it in registers, and only a
// longer key is compared in keyArena. The table hash (keyHash) folds the words
// with a 64x64->128 multiply and depends on no Partitioner.
// Steady state, Send allocates nothing: arenas and tables retain their
// capacity across spill cycles, and across jobs — a private arena comes from
// arenaPool at Init and goes back, reset, at Finalize, so only the first job
// of a process grows one from zero.
//
// A spill orders entries with a byte radix over fixed-size sort records (see
// sortOrder), so the arena is dereferenced only to settle keys whose first
// eight bytes are equal, and copies each block into its partition buffer as
// it lies (see realign).
type arenaBuffer struct {
	keyArena []byte
	valArena []byte
	entries  []arenaEntry
	slots    []int32 // entry index + 1; 0 = empty
	// payload is the buffered byte count SpillThreshold is compared against:
	// every buffered value plus each distinct key once, or each pair's key
	// when ungrouped, however the pairs are held. Entries, slots and sort
	// records are not counted.
	payload   int
	ungrouped bool // no combiner or value sort needs a key's whole list
	perPair   bool // appending one entry per pair, the table unused
	window    int  // pairs in the current probed or unprobed window (ungrouped)
	fresh     int  // pairs of the probed window that made an entry of their own
	tableFrom int  // the table indexes entries[tableFrom:]

	scratch [][]byte  // reused value-materialization space
	stage   []byte    // reused staging space for a fold's result
	order   []sortKey // reused sort records for realign
	orderB  []sortKey // the radix passes' other half, swapped with order
}

// arenaPool keeps finalized instances' arenas for the next Init.
var arenaPool = sync.Pool{New: func() any { return newArenaBuffer() }}

// sortKey is one entry's spill-sort record: its key's kv.Prefix and the
// entry index. The sort moves integers held in one flat slice and
// dereferences the arena only on a tie, which also settles what padding
// cannot ("a" vs "a\x00").
type sortKey struct {
	prefix uint64
	idx    int32
}

// arenaEntry is one distinct key, or one pair once perPair, and its value
// block.
type arenaEntry struct {
	hash   uint64
	w0, w1 uint64 // keyWords(key)
	keyOff int32
	keyLen int32
	valOff int32 // block start in valArena
	valLen int32 // block bytes in use
	valCap int32 // block capacity
	nvals  int32
}

const arenaInitSlots = 64 // must stay a power of two

// An ungrouped buffer decides whether to probe from windows of sampleSize
// probed pairs, and probes again after unprobedPairs pairs appended unprobed.
const (
	sampleSize    = 256
	unprobedPairs = 15 * sampleSize
)

func newArenaBuffer() *arenaBuffer {
	return &arenaBuffer{slots: make([]int32, arenaInitSlots)}
}

// keyWords loads a key as two little-endian words from overlapping loads: a
// 1-3 byte key's first, middle and last byte; a 4-7 byte key's first and last
// four; and from 8 bytes on, the first eight of its last sixteen and its last
// eight. Up to 16 bytes the loads cover every byte, so equal length and words
// mean equal keys.
func keyWords(key []byte) (w0, w1 uint64) {
	switch n := len(key); {
	case n >= 8:
		return binary.LittleEndian.Uint64(key[max(n-16, 0):]), binary.LittleEndian.Uint64(key[n-8:])
	case n >= 4:
		return uint64(binary.LittleEndian.Uint32(key)), uint64(binary.LittleEndian.Uint32(key[n-4:]))
	case n > 0:
		return uint64(key[0])<<16 | uint64(key[n/2])<<8 | uint64(key[n-1]), 0
	}
	return 0, 0
}

// keyHash is the table hash of a key whose keyWords are w0, w1: each 128-bit
// product folds to hi ^ lo. A key longer than 16 bytes first folds every
// 16-byte chunk before its last 16 bytes, so every byte feeds the hash.
func keyHash(key []byte, w0, w1 uint64) uint64 {
	const k0, k1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	h := uint64(len(key)) ^ k0
	for p := key; len(p) > 16; p = p[16:] {
		hi, lo := bits.Mul64(binary.LittleEndian.Uint64(p)^k1, binary.LittleEndian.Uint64(p[8:])^h)
		h = hi ^ lo
	}
	hi, lo := bits.Mul64(w0^k1, w1^h)
	return hi ^ lo
}

func (b *arenaBuffer) key(e *arenaEntry) []byte {
	return b.keyArena[e.keyOff : e.keyOff+e.keyLen]
}

// find returns the entry index for key, given its keyHash and keyWords, or -1.
func (b *arenaBuffer) find(h, w0, w1 uint64, key []byte) int32 {
	mask := uint64(len(b.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		idx := b.slots[i]
		if idx == 0 {
			return -1
		}
		e := &b.entries[idx-1]
		if e.hash == h && e.keyLen == int32(len(key)) && e.w0 == w0 && e.w1 == w1 &&
			(len(key) <= 16 || bytes.Equal(b.key(e), key)) {
			return idx - 1
		}
	}
}

// insertSlot files entry index idx under hash h; the caller guarantees the
// key is absent and the table has room.
func (b *arenaBuffer) insertSlot(h uint64, idx int32) {
	mask := uint64(len(b.slots) - 1)
	i := h & mask
	for b.slots[i] != 0 {
		i = (i + 1) & mask
	}
	b.slots[i] = idx + 1
}

// grow doubles the slot table and rehashes every entry it indexes.
func (b *arenaBuffer) grow() {
	b.slots = make([]int32, 2*len(b.slots))
	for i := b.tableFrom; i < len(b.entries); i++ {
		b.insertSlot(b.entries[i].hash, int32(i))
	}
}

// clearTable empties the table, so later pairs make fresh entries.
func (b *arenaBuffer) clearTable() {
	clear(b.slots)
	b.tableFrom = len(b.entries)
}

// probeAgain ends an unprobed stretch. The table is emptied first: a key's
// next pair must not join an entry older than the ones appended since.
func (b *arenaBuffer) probeAgain() {
	b.clearTable()
	b.perPair, b.window = false, 0
}

// add buffers one pair, copying key and value into the arenas (Send promises
// the caller its buffers are free on return). It returns how many pairs the
// incremental combiner eliminated (0 without a combiner). Byte accounting is
// incremental: no walks outside the combine fold itself.
func (b *arenaBuffer) add(key, value []byte, combine CombineFunc) int64 {
	if b.perPair {
		off := len(b.valArena)
		b.valArena = kv.AppendBytes(b.valArena, value)
		n := int32(len(b.valArena) - off)
		b.entries = append(b.entries, arenaEntry{
			keyOff: int32(len(b.keyArena)),
			keyLen: int32(len(key)),
			valOff: int32(off),
			valLen: n,
			valCap: n,
			nvals:  1,
		})
		b.keyArena = append(b.keyArena, key...)
		b.payload += len(key) + len(value)
		if b.window++; b.window == unprobedPairs {
			b.probeAgain()
		}
		return 0
	}
	w0, w1 := keyWords(key)
	h := keyHash(key, w0, w1)
	idx := b.find(h, w0, w1, key)
	if idx < 0 {
		if (len(b.entries)-b.tableFrom)*4 >= len(b.slots)*3 {
			b.grow()
		}
		idx = int32(len(b.entries))
		b.entries = append(b.entries, arenaEntry{
			hash:   h,
			w0:     w0,
			w1:     w1,
			keyOff: int32(len(b.keyArena)),
			keyLen: int32(len(key)),
		})
		b.keyArena = append(b.keyArena, key...)
		b.insertSlot(h, idx)
		b.payload += len(key)
		b.fresh++
	} else if b.ungrouped {
		b.payload += len(key)
	}
	e := &b.entries[idx]
	b.appendValue(e, value)
	b.payload += len(value)
	if b.ungrouped {
		if b.window++; b.window == sampleSize {
			b.perPair = b.fresh*4 > sampleSize*3
			b.window, b.fresh = 0, 0
		}
		return 0
	}
	if combine == nil || e.nvals < combineEvery {
		return 0
	}
	return b.foldEntry(e, combine, false)
}

// appendValue copies value, as a kv length-prefixed record, to the end of the
// entry's block. A value below 128 bytes is its length's own one-byte VLong,
// so the common record is written here without a call.
func (b *arenaBuffer) appendValue(e *arenaEntry, value []byte) {
	size := int32(len(value)) + 1
	if len(value) >= 128 {
		size = int32(kv.BytesSize(value))
	}
	if need := e.valLen + size; need > e.valCap {
		b.growBlock(e, need)
	}
	rec := b.valArena[e.valOff+e.valLen : e.valOff+e.valLen+size]
	if len(value) < 128 {
		rec[0] = byte(len(value))
		copy(rec[1:], value)
	} else {
		kv.AppendBytes(rec[:0], value)
	}
	e.valLen += size
	e.nvals++
}

// growBlock moves the entry's block to the end of valArena with room for at
// least need bytes and at least twice what it had.
func (b *arenaBuffer) growBlock(e *arenaEntry, need int32) {
	newCap := max(need, 2*e.valCap)
	off := len(b.valArena)
	b.valArena = slices.Grow(b.valArena, int(newCap))[:off+int(newCap)]
	copy(b.valArena[off:], b.valArena[e.valOff:e.valOff+e.valLen])
	e.valOff, e.valCap = int32(off), newCap
}

// materialize decodes an entry's block into the reusable scratch slice, for a
// fold. The returned slices alias valArena and are valid until the next arena
// write.
func (b *arenaBuffer) materialize(e *arenaEntry) [][]byte {
	vs := b.scratch[:0]
	for block := b.valArena[e.valOff : e.valOff+e.valLen]; len(block) > 0; {
		if n := int(block[0]); n < 128 && n < len(block) {
			vs = append(vs, block[1:1+n:1+n])
			block = block[1+n:]
			continue
		}
		v, n, err := kv.ReadBytes(block)
		if err != nil {
			panic("mpid: corrupt send-buffer block: " + err.Error())
		}
		vs = append(vs, v)
		block = block[n:]
	}
	b.scratch = vs
	return vs
}

// foldEntry passes an entry's values through the combiner, when set, and then
// the value sort, when set, and writes the result back over the start of the
// entry's own block, so a fold strands nothing. The result may alias the block
// it is about to overwrite (see CombineFunc), so it is staged first. It
// returns how many values the combiner eliminated.
func (b *arenaBuffer) foldEntry(e *arenaEntry, combine CombineFunc, sortValues bool) int64 {
	vs := b.materialize(e)
	oldLen, oldBytes := len(vs), 0
	for _, v := range vs {
		oldBytes += len(v)
	}
	out := vs
	if combine != nil {
		out = combine(b.key(e), vs)
	}
	if sortValues {
		sortValueList(out)
	}
	stage, newBytes := b.stage[:0], 0
	for _, v := range out {
		stage = kv.AppendBytes(stage, v)
		newBytes += len(v)
	}
	b.stage = stage
	e.valLen, e.nvals = 0, int32(len(out)) // nothing for a grow to carry over
	if int32(len(stage)) > e.valCap {
		b.growBlock(e, int32(len(stage)))
	}
	e.valLen = int32(copy(b.valArena[e.valOff:], stage))
	b.payload += newBytes - oldBytes
	return int64(oldLen - len(out))
}

// bytes reports the buffered payload byte count, the quantity SpillThreshold
// is compared against (see payload).
func (b *arenaBuffer) bytes() int { return b.payload }

func (b *arenaBuffer) empty() bool { return len(b.entries) == 0 }

// reset forgets all buffered pairs but keeps every backing array, so the
// next fill cycle allocates only if it outgrows the previous ones.
func (b *arenaBuffer) reset() {
	b.keyArena = b.keyArena[:0]
	b.valArena = b.valArena[:0]
	b.entries = b.entries[:0]
	b.clearTable()
	b.payload = 0
	b.perPair, b.window, b.fresh = false, 0, 0
}

// wireBytes is the size the buffered key lists serialize to (kv.AppendKeyList
// framing included), before any spill-time combine shrinks them.
func (b *arenaBuffer) wireBytes() int {
	n := len(b.keyArena)
	for i := range b.entries {
		e := &b.entries[i]
		n += kv.VLongSize(int64(e.keyLen)) + kv.VLongSize(int64(e.nvals)) + int(e.valLen)
	}
	return n
}

// sortOrder returns the entries' sort records in spill order: keys in
// bytes.Compare order, equal keys (entries of an ungrouped buffer) in
// insertion order. The slice is the arena's own and valid until the next sort.
//
// The order is an LSD byte radix over the keys' 8-byte prefixes: one pass
// over the keys fills all eight histograms, a byte position every key agrees
// on is skipped (short keys agree on their zero padding, so WordCount pays
// two or three scatter passes and TeraSort eight), and each remaining
// position is one stable scatter between order and orderB. Keys the prefix
// cannot separate are then ordered by full-key comparison, run by run.
func (b *arenaBuffer) sortOrder() []sortKey {
	n := len(b.entries)
	if n == 0 {
		return nil
	}
	src := slices.Grow(b.order[:0], n)[:n]
	dst := slices.Grow(b.orderB[:0], n)[:n]
	var hist [8][256]int32
	for i := range src {
		p := kv.Prefix(b.key(&b.entries[i]))
		src[i] = sortKey{p, int32(i)}
		for d := range hist {
			hist[d][byte(p>>(8*d))]++
		}
	}
	for d := range hist {
		h, shift := &hist[d], 8*d
		if h[byte(src[0].prefix>>shift)] == int32(n) {
			continue // every key has the same byte here
		}
		off := int32(0)
		for v, c := range h {
			h[v], off = off, off+c
		}
		for _, sk := range src {
			v := byte(sk.prefix >> shift)
			dst[h[v]] = sk
			h[v]++
		}
		src, dst = dst, src
	}
	b.order, b.orderB = src, dst
	b.settleTies(src)
	return src
}

// settleTies orders each run of equal prefixes by the full keys, and equal
// keys by entry index: what the radix leaves undecided are keys sharing their
// first eight bytes and keys that differ only in trailing zero bytes the
// padding mimics.
func (b *arenaBuffer) settleTies(order []sortKey) {
	byKey := func(x, y sortKey) int {
		if c := bytes.Compare(b.key(&b.entries[x.idx]), b.key(&b.entries[y.idx])); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].prefix == order[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], byKey)
		}
		i = j
	}
}

// realign appends every buffered key's frame to its partition's buffer, in
// spill order, so each buffer is a sorted run — the invariant the receive-side
// k-way merge builds on. A frame is kv.AppendKeyList's: the key, its value
// count, then the key's value blocks copied as they lie, since a block already
// is its values' wire encoding. Equal keys, adjacent entries of an ungrouped
// buffer, share one frame. A combiner or the value sort first rewrites a key's
// block in place (foldEntry); combined counts the pairs the combiner
// eliminated.
func (b *arenaBuffer) realign(parts [][]byte, partition PartitionFunc, combine CombineFunc, sortValues bool) (combined int64, err error) {
	order := b.sortOrder()
	for i := 0; i < len(order); {
		first := &b.entries[order[i].idx]
		key := b.key(first)
		j, nvals := i+1, int64(first.nvals)
		for b.ungrouped && j < len(order) && order[j].prefix == order[i].prefix && bytes.Equal(b.key(&b.entries[order[j].idx]), key) {
			nvals += int64(b.entries[order[j].idx].nvals)
			j++
		}
		if combine != nil || sortValues {
			combined += b.foldEntry(first, combine, sortValues)
			nvals = int64(first.nvals)
		}
		p := partition(key, len(parts))
		if p < 0 || p >= len(parts) {
			return combined, fmt.Errorf("mpid: partitioner returned %d for %d partitions", p, len(parts))
		}
		dst := kv.AppendVLong(kv.AppendBytes(parts[p], key), nvals)
		for _, sk := range order[i:j] {
			e := &b.entries[sk.idx]
			dst = append(dst, b.valArena[e.valOff:e.valOff+e.valLen]...)
		}
		parts[p] = dst
		i = j
	}
	return combined, nil
}
