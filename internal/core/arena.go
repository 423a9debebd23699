package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/ict-repro/mpid/internal/kv"
)

// arenaBuffer is the mapper-side hash table of §IV.A: Send buffers pairs
// here, grouped by key, so the combiner can merge values locally before
// anything is serialized or transmitted. Everything lives in flat slices that
// are reset — not reallocated — between spills:
//
//	arena    each entry's key and value block, and each per-pair frame, back
//	         to back; a block holds the key's values in insertion order, each
//	         a kv length-prefixed byte string — already their wire form
//	entries  one record per distinct key: its key's offset and length plus
//	         its block's offset, used length and capacity
//	order    one sort record per entry or frame, appended when it is made
//
// A key's first block is cut to fit its first value. A block that fills moves
// to the arena's end at twice the capacity; the blocks it leaves behind add up
// to less than the one it occupies. Only blocks move, so a key's offset is its
// creation order. A combine fold writes its result back over the start of the
// key's own block, so a combining job's arena is bounded by distinct keys x
// combineEvery however many pairs pass through it.
//
// A buffer with a combiner also keeps a run per entry (runs, parallel to
// entries and filled only by combining buffers): the entry's last value,
// packed into a word when it is at most maxRunValue bytes, and a count of the
// copies of it that follow in the key's list but not in its block. A pair
// that repeats the run's value only bumps that count and the entry's nvals;
// any other value first writes the pending copies to the block and then
// starts a new run. A fold hands the combiner the block's values followed by
// the copies, one slice repeated, and starts the next run from the
// combiner's last output, so WordCount's stream of 1s, folded to counts,
// leaves a block of a few counts however many pairs pass. The wire form is
// unchanged: a spill writes any pending copies out as the records they
// stand for.
//
// The table exists so that a combiner, or the value sort, sees all of a key's
// buffered values. When neither is configured (ungrouped, set at Init), it
// only saves the spill sorting a key once per pair, which pays while keys
// repeat, so the buffer watches what the table does for it. It probes in
// windows of sampleSize pairs; after a window in which more than three pairs
// in four made an entry of their own, it stops probing (perPair) and appends
// each pair as its wire frame: kv.AppendKeyList's bytes for the key and its
// one value, with no entry. After unprobedPairs pairs it probes again over an
// emptied table, so that a job whose keys start repeating halfway through a
// cycle (a join reading one table's rows, then the other's) is grouped again.
// A key may thus be held by several entries and frames, each younger than the
// last; the spill's sort makes them adjacent, in arena order, and they share
// one frame.
//
// The hash table itself is open addressing with linear probing over int32
// entry indices, so lookups touch no pointers and growth is a flat rehash.
// Each entry holds its key as two words (keyWords), which with its length are
// a key of at most 16 bytes: a probe decides it in registers, and only a
// longer key is compared in the arena. The table hash (keyHash) folds the
// words with a 64x64->128 multiply and depends on no Partitioner.
// Steady state, Send allocates nothing: arenas and tables retain their
// capacity across spill cycles, and across jobs — a private arena comes from
// arenaPool at Init and goes back, reset, at Finalize, so only the first job
// of a process grows one from zero. A spill sorts the records (sortOrder) and
// copies each block, and each lone frame, as it lies (realign) into the
// partition buffers the arena keeps with the rest (partBufs).
type arenaBuffer struct {
	arena   []byte
	entries []arenaEntry
	runs    []arenaRun // one per entry when combining, else empty
	slots   []int32    // entry index + 1; 0 = empty
	order   []sortKey  // one per entry or frame, sorted in place at a spill
	// payload is the buffered byte count SpillThreshold is compared against:
	// every buffered value plus each distinct key once, or each pair's key
	// when ungrouped, however the pairs are held. Entries, slots, sort
	// records and length prefixes are not counted.
	payload    int
	frameBytes int  // arena bytes held by per-pair frames
	ungrouped  bool // no combiner or value sort needs a key's whole list
	perPair    bool // appending each pair as its frame, the table unused
	window     int  // pairs in the current probed or unprobed window (ungrouped)
	fresh      int  // pairs of the probed window that made an entry of their own
	tableFrom  int  // the table indexes entries[tableFrom:]

	// partition places each new entry or frame; one partition until Init.
	partition PartitionFunc
	nParts    int

	scratch [][]byte  // reused value-materialization space
	stage   []byte    // reused staging space for a fold's result
	orderB  []sortKey // the radix pass's target, swapped with order
	parts   [][]byte  // the spill's partition buffers (partBufs)
}

// arenaPool keeps finalized instances' arenas for the next Init.
var arenaPool = sync.Pool{New: func() any { return newArenaBuffer() }}

// sortKey is one entry's or frame's spill-sort record: its key's kv.Prefix,
// ref (the entry's index, or ^offset of the frame in the arena) and its
// partition, taken while the key is in cache. The sort moves these 16 bytes
// and reads the arena only on a tie, which also settles what padding cannot
// ("a" vs "a\x00").
type sortKey struct {
	prefix uint64
	ref    int32
	part   int32
}

// arenaEntry is one distinct key of a probed window and its value block.
type arenaEntry struct {
	hash   uint64
	w0, w1 uint64 // keyWords(key)
	keyOff int32  // key start in the arena
	keyLen int32
	valOff int32 // block start in the arena
	valLen int32 // block bytes in use
	valCap int32 // block capacity
	nvals  int32
}

// arenaRun is a combining entry's run: the entry's last value as packValue
// packs it (0 when it is too long to pack, or the list is empty) and how many
// copies of it follow the block in the key's list.
type arenaRun struct {
	word uint64
	n    int32
}

// maxRunValue is the longest value a run packs: its one-byte length prefix
// and its bytes fill seven bytes of the word, and runMark the eighth, so
// that a packed word is never 0, the empty value's included.
const (
	maxRunValue = 6
	runMark     = 1 << 63
)

// packValue returns value's kv record (length byte, then the bytes) as a
// little-endian word, marked with runMark, or 0 if value is too long.
func packValue(value []byte) uint64 {
	if len(value) > maxRunValue {
		return 0
	}
	w := runMark | uint64(len(value))
	for i, c := range value {
		w |= uint64(c) << (8 * (i + 1))
	}
	return w
}

// appendRun appends a run's pending copies to dst, each the kv record its
// word holds.
func appendRun(dst []byte, r arenaRun) []byte {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], r.word)
	rec := word[:word[0]+1]
	for range r.n {
		dst = append(dst, rec...)
	}
	return dst
}

const arenaInitSlots = 64 // must stay a power of two

// The arena's offsets are int32. One add grows it by at most six times its
// length plus twice the pair (a key or frame, and two block moves to twice a
// capacity that lies in it; a run's copies and a fold's result aside), so
// Send refuses a pair that would take it past maxArena (a variable so that a
// test can lower it). Init bounds the threshold a quarter below that: blocks
// that move leave holes behind, but a block spans less than twice what it
// held and its holes less than itself.
var maxArena = math.MaxInt32 / 8

const maxSpillThreshold = math.MaxInt32 / 8 / 4

// An ungrouped buffer decides whether to probe from windows of sampleSize
// probed pairs, and probes again after unprobedPairs pairs appended unprobed.
const (
	sampleSize    = 256
	unprobedPairs = 15 * sampleSize
)

func newArenaBuffer() *arenaBuffer {
	return &arenaBuffer{slots: make([]int32, arenaInitSlots), partition: HashPartitioner, nParts: 1}
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
	return b.arena[e.keyOff : e.keyOff+e.keyLen]
}

// at returns a sort record's key, its value records as they lie (a block, or
// a frame's one record) and how many they are.
func (b *arenaBuffer) at(r sortKey) (key, vals []byte, nvals int64) {
	if r.ref >= 0 {
		e := &b.entries[r.ref]
		return b.key(e), b.arena[e.valOff : e.valOff+e.valLen], int64(e.nvals)
	}
	f := b.arena[^r.ref:]
	if kl := int(f[0]); kl < 128 && f[kl+2] < 128 { // one-byte lengths
		return f[1 : 1+kl], f[kl+2 : kl+3+int(f[kl+2])], 1
	}
	key, n, _ := kv.ReadBytes(f)
	vals = f[n+1:] // past the value count, 1
	_, m, _ := kv.ReadBytes(vals)
	return key, vals[:m], 1
}

// keyOf returns a sort record's key and where its key or frame starts in the
// arena, which is the order records were made in.
func (b *arenaBuffer) keyOf(r sortKey) ([]byte, int32) {
	if r.ref >= 0 {
		e := &b.entries[r.ref]
		return b.key(e), e.keyOff
	}
	key, _, _ := b.at(r)
	return key, ^r.ref
}

// record appends the sort record of a new entry or frame, running the
// partitioner on its key.
func (b *arenaBuffer) record(key []byte, ref int32) error {
	p := b.partition(key, b.nParts)
	if p < 0 || p >= b.nParts {
		return fmt.Errorf("mpid: partitioner returned %d for %d partitions", p, b.nParts)
	}
	b.order = append(b.order, sortKey{kv.Prefix(key), ref, int32(p)})
	return nil
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

// add buffers one pair, copying it into the arena (Send promises the caller
// its buffers are free on return). It returns how many pairs the incremental
// combiner eliminated (0 without a combiner), or an error, having buffered
// nothing, for a pair that the partitioner puts out of range or that would
// take the arena past maxArena. Byte accounting is incremental: no walks
// outside the combine fold itself.
func (b *arenaBuffer) add(key, value []byte, combine CombineFunc) (int64, error) {
	if len(b.arena)+len(key)+len(value) > maxArena {
		return 0, fmt.Errorf("mpid: a %d-byte pair would take the send buffer past %d bytes", len(key)+len(value), maxArena)
	}
	if b.perPair {
		off := len(b.arena)
		if err := b.record(key, ^int32(off)); err != nil {
			return 0, err
		}
		b.arena = kv.AppendBytes(append(kv.AppendBytes(b.arena, key), 1), value)
		b.frameBytes += len(b.arena) - off
		b.payload += len(key) + len(value)
		if b.window++; b.window == unprobedPairs {
			b.probeAgain()
		}
		return 0, nil
	}
	w0, w1 := keyWords(key)
	h := keyHash(key, w0, w1)
	idx := b.find(h, w0, w1, key)
	if idx < 0 {
		if err := b.record(key, int32(len(b.entries))); err != nil {
			return 0, err
		}
		if (len(b.entries)-b.tableFrom)*4 >= len(b.slots)*3 {
			b.grow()
		}
		idx = int32(len(b.entries))
		b.entries = append(b.entries, arenaEntry{
			hash:   h,
			w0:     w0,
			w1:     w1,
			keyOff: int32(len(b.arena)),
			keyLen: int32(len(key)),
		})
		b.arena = append(b.arena, key...)
		b.insertSlot(h, idx)
		if combine != nil {
			b.runs = append(b.runs, arenaRun{})
		}
		b.payload += len(key)
		b.fresh++
	} else if b.ungrouped {
		b.payload += len(key)
	}
	e := &b.entries[idx]
	b.payload += len(value)
	if combine == nil {
		b.appendValue(e, value)
		if b.ungrouped {
			if b.window++; b.window == sampleSize {
				b.perPair = b.fresh*4 > sampleSize*3
				b.window, b.fresh = 0, 0
			}
		}
		return 0, nil
	}
	r := &b.runs[idx]
	if w := packValue(value); w != 0 && w == r.word {
		r.n++
		e.nvals++
	} else {
		b.writeRun(e, r)
		b.appendValue(e, value)
		r.word = w
	}
	if e.nvals < combineEvery {
		return 0, nil
	}
	return b.foldEntry(idx, combine, false), nil
}

// writeRun moves a run's pending copies into its entry's block, so that a
// different value can follow them there.
func (b *arenaBuffer) writeRun(e *arenaEntry, r *arenaRun) {
	if r.n == 0 {
		return
	}
	size := r.n * int32(byte(r.word)+1)
	if need := e.valLen + size; need > e.valCap {
		b.growBlock(e, need)
	}
	end := e.valOff + e.valLen
	appendRun(b.arena[end:end:end+size], *r) // in place: the room is there
	e.valLen += size
	r.n = 0
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
	rec := b.arena[e.valOff+e.valLen : e.valOff+e.valLen+size]
	if len(value) < 128 {
		rec[0] = byte(len(value))
		copy(rec[1:], value)
	} else {
		kv.AppendBytes(rec[:0], value)
	}
	e.valLen += size
	e.nvals++
}

// growBlock moves the entry's block to the end of the arena with room for at
// least need bytes and at least twice what it had.
func (b *arenaBuffer) growBlock(e *arenaEntry, need int32) {
	newCap := max(need, 2*e.valCap)
	off := len(b.arena)
	b.arena = slices.Grow(b.arena, int(newCap))[:off+int(newCap)]
	copy(b.arena[off:], b.arena[e.valOff:e.valOff+e.valLen])
	e.valOff, e.valCap = int32(off), newCap
}

// materialize decodes an entry's block into the reusable scratch slice, for a
// fold. The returned slices alias the arena and are valid until the next arena
// write.
func (b *arenaBuffer) materialize(e *arenaEntry) [][]byte {
	vs := b.scratch[:0]
	for block := b.arena[e.valOff : e.valOff+e.valLen]; len(block) > 0; {
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

// foldEntry passes entry idx's values, its run's pending copies last, through
// the combiner, when set, and then the value sort, when set, and writes the
// result back over the start of the entry's own block, so a fold strands
// nothing. The result may alias the block it is about to overwrite (see
// CombineFunc), so it is staged first. The entry's next run starts from the
// result's last value. It returns how many values the combiner eliminated.
func (b *arenaBuffer) foldEntry(idx int32, combine CombineFunc, sortValues bool) int64 {
	e := &b.entries[idx]
	vs := b.materialize(e)
	oldBytes := 0
	for _, v := range vs {
		oldBytes += len(v)
	}
	var r *arenaRun
	if len(b.runs) > 0 {
		r = &b.runs[idx]
	}
	if r != nil && r.n > 0 {
		n, last := len(vs), vs[len(vs)-1] // the block ends with the run's value
		vs = slices.Grow(vs, int(r.n))[:n+int(r.n)]
		for i := n; i < len(vs); i++ {
			vs[i] = last
		}
		b.scratch = vs
		oldBytes += int(r.n) * len(last)
	}
	oldLen := len(vs)
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
	if r != nil {
		r.word, r.n = 0, 0
		if len(out) > 0 {
			r.word = packValue(out[len(out)-1])
		}
	}
	e.valLen, e.nvals = 0, int32(len(out)) // nothing for a grow to carry over
	if int32(len(stage)) > e.valCap {
		b.growBlock(e, int32(len(stage)))
	}
	e.valLen = int32(copy(b.arena[e.valOff:], stage))
	b.payload += newBytes - oldBytes
	return int64(oldLen - len(out))
}

// bytes reports the buffered payload byte count, the quantity SpillThreshold
// is compared against (see payload).
func (b *arenaBuffer) bytes() int { return b.payload }

func (b *arenaBuffer) empty() bool { return len(b.order) == 0 }

// reset forgets all buffered pairs but keeps every backing array, so the
// next fill cycle allocates only if it outgrows the previous ones.
func (b *arenaBuffer) reset() {
	b.arena = b.arena[:0]
	b.entries = b.entries[:0]
	b.runs = b.runs[:0]
	b.order = b.order[:0]
	b.clearTable()
	b.payload, b.frameBytes = 0, 0
	b.perPair, b.window, b.fresh = false, 0, 0
}

// partBufs returns n empty partition buffers for a spill to realign into.
// They are the rank's own: they keep their capacity across spills and, with
// the arena, across jobs. One short of an even share of what the spill will
// serialize (plus 512 bytes) is replaced by one of that size first, so a
// balanced spill never regrows a buffer by doubling.
func (b *arenaBuffer) partBufs(n int) [][]byte {
	b.parts = slices.Grow(b.parts[:0], n)[:n]
	est := b.wireBytes()/n + 512
	for i, p := range b.parts {
		if cap(p) < est {
			p = make([]byte, 0, est)
		}
		b.parts[i] = p[:0]
	}
	return b.parts
}

// wireBytes is the size the buffered key lists serialize to (kv.AppendKeyList
// framing included, runs' pending copies written out), before any spill-time
// combine shrinks them.
func (b *arenaBuffer) wireBytes() int {
	n := b.frameBytes
	for i := range b.entries {
		e := &b.entries[i]
		n += kv.VLongSize(int64(e.keyLen)) + int(e.keyLen) + kv.VLongSize(int64(e.nvals)) + int(e.valLen)
	}
	for _, r := range b.runs {
		n += int(r.n) * int(byte(r.word)+1)
	}
	return n
}

// sortOrder sorts the records into spill order: keys in bytes.Compare order,
// equal keys (entries and frames of an ungrouped buffer) in arena order, the
// order the records were made in, which the stable radix keeps. The slice is
// the arena's own and valid until the next add or reset.
func (b *arenaBuffer) sortOrder() []sortKey {
	b.orderB = slices.Grow(b.orderB[:0], len(b.order))[:len(b.order)]
	radixSort(b.order, b.orderB)
	b.settleTies(b.order)
	return b.order
}

// radixSort sorts rs by prefix, stably, with tmp as scratch of the same
// length: an MSD radix whose counting pass takes the bits from the highest
// one where any two prefixes differ down, about one bucket per record and at
// most 2048, and sorts each bucket the same way, by insertion from 32 records
// down. Decimal keys, which differ in few bits of each byte, take more passes
// than TeraSort's random ones, which fill a spill's buckets five deep.
func radixSort(rs, tmp []sortKey) {
	if len(rs) <= 32 {
		for i := 1; i < len(rs); i++ {
			r, j := rs[i], i
			for ; j > 0 && rs[j-1].prefix > r.prefix; j-- {
				rs[j] = rs[j-1]
			}
			rs[j] = r
		}
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, r := range rs {
		or, and = or|r.prefix, and&r.prefix
	}
	if or == and {
		return
	}
	width := min(bits.Len(uint(len(rs)))-1, 11) // about as many buckets as records
	shift, mask := max(bits.Len64(or^and)-width, 0), uint64(1)<<width-1
	var hist [1 << 11]int32
	ends := hist[:mask+1]
	for _, r := range rs {
		ends[r.prefix>>shift&mask]++
	}
	start := int32(0)
	for v, c := range ends {
		ends[v], start = start, start+c
	}
	for _, r := range rs {
		v := r.prefix >> shift & mask
		tmp[ends[v]] = r
		ends[v]++ // after the scatter, the bucket's end
	}
	copy(rs, tmp)
	lo := int32(0)
	for _, hi := range ends {
		if hi-lo > 1 {
			radixSort(rs[lo:hi], tmp[lo:hi])
		}
		lo = hi
	}
}

// settleTies orders each run of equal prefixes by the full keys, and equal
// keys by arena position: what the radix leaves undecided are keys sharing
// their first eight bytes and keys that differ only in trailing zero bytes
// the padding mimics. A run of one key is already in arena order, since the
// records were made in that order and the radix is stable.
func (b *arenaBuffer) settleTies(order []sortKey) {
	byKey := func(x, y sortKey) int {
		kx, px := b.keyOf(x)
		ky, py := b.keyOf(y)
		if c := bytes.Compare(kx, ky); c != 0 {
			return c
		}
		return cmp.Compare(px, py)
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].prefix == order[i].prefix {
			j++
		}
		if j-i > 1 {
			key, _ := b.keyOf(order[i])
			differs := func(r sortKey) bool { k, _ := b.keyOf(r); return !bytes.Equal(k, key) }
			if slices.ContainsFunc(order[i+1:j], differs) {
				slices.SortFunc(order[i:j], byKey)
			}
		}
		i = j
	}
}

// realign appends every buffered key's frame to its partition's buffer, in
// spill order, so each buffer is a sorted run — the invariant the receive-side
// k-way merge builds on. A frame is kv.AppendKeyList's: the key, its value
// count, then the key's blocks as they lie (each followed by its run's pending
// copies) and its per-pair frames' value records. A per-pair frame whose
// prefix the next record does not share, its lengths one byte each, is
// copied whole. A combiner or the value sort first rewrites a key's block in
// place (foldEntry); combined counts the pairs the combiner eliminated.
func (b *arenaBuffer) realign(parts [][]byte, combine CombineFunc, sortValues bool) (combined int64) {
	order := b.sortOrder()
	for i := 0; i < len(order); {
		r := order[i]
		if r.ref < 0 && (i+1 == len(order) || order[i+1].prefix != r.prefix) {
			if off, kl := int(^r.ref), int(b.arena[^r.ref]); kl < 128 {
				if vl := int(b.arena[off+kl+2]); vl < 128 {
					parts[r.part] = append(parts[r.part], b.arena[off:off+kl+3+vl]...)
					i++
					continue
				}
			}
		}
		if combine != nil || sortValues {
			combined += b.foldEntry(r.ref, combine, sortValues)
		}
		key, _, nvals := b.at(r)
		j := i + 1
		for ; b.ungrouped && j < len(order) && order[j].prefix == r.prefix; j++ {
			k, _, n := b.at(order[j])
			if !bytes.Equal(k, key) {
				break
			}
			nvals += n
		}
		dst := kv.AppendVLong(kv.AppendBytes(parts[r.part], key), nvals)
		for _, s := range order[i:j] {
			_, vals, _ := b.at(s)
			dst = append(dst, vals...)
			if len(b.runs) > 0 {
				dst = appendRun(dst, b.runs[s.ref]) // a combining buffer holds no frames
			}
		}
		parts[r.part] = dst
		i = j
	}
	return combined
}
