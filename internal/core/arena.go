package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// arenaBuffer is the allocation-conscious mapper-side hash table (§IV.A).
// Where the legacy hashBuffer pays one allocation per buffered pair (the
// value copy), one per new key (the map key string) and a map rebuild per
// spill, the arena keeps everything in four flat slices that are reset —
// not reallocated — between spills:
//
//	keyArena  all key bytes, appended back to back
//	valArena  all value bytes, appended back to back
//	entries   one record per distinct key: offsets into keyArena plus the
//	          head/tail of its value chain
//	nodes     one record per buffered value: offsets into valArena plus a
//	          next link, forming each key's chain in insertion order
//
// The hash table itself is open addressing with linear probing over int32
// entry indices, so lookups touch no pointers and growth is a flat rehash.
// Steady state, Send allocates nothing: arenas and tables retain their
// capacity across spill cycles.
type arenaBuffer struct {
	keyArena []byte
	valArena []byte
	entries  []arenaEntry
	nodes    []valNode
	slots    []int32 // entry index + 1; 0 = empty
	payload  int     // buffered payload bytes: each key once + all values

	scratch [][]byte  // reused value-materialization space
	order   []sortKey // reused sort records for realign
}

// sortKey is one entry's spill-sort record: the first 8 key bytes as a
// big-endian integer (shorter keys zero-padded) and the entry index. The
// sort compares integers held in one flat slice and dereferences the arena
// only on a tie, which also settles what padding cannot ("a" vs "a\x00").
type sortKey struct {
	prefix uint64
	idx    int32
}

func keyPrefix(key []byte) uint64 {
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// arenaEntry is one distinct key and its value chain.
type arenaEntry struct {
	hash   uint64
	keyOff int32
	keyLen int32
	head   int32 // node index + 1; 0 = empty chain
	tail   int32
	nvals  int32
}

// valNode is one buffered value in a key's chain.
type valNode struct {
	off  int32
	len  int32
	next int32 // node index + 1; 0 = end of chain
}

const arenaInitSlots = 64 // must stay a power of two

func newArenaBuffer() *arenaBuffer {
	return &arenaBuffer{slots: make([]int32, arenaInitSlots)}
}

// fnv1a matches HashPartitioner's hash; reimplemented here so the table
// hash cannot drift under a custom partitioner.
func fnv1a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func (b *arenaBuffer) key(e *arenaEntry) []byte {
	return b.keyArena[e.keyOff : e.keyOff+e.keyLen]
}

// find returns the entry index for key, or -1.
func (b *arenaBuffer) find(h uint64, key []byte) int32 {
	mask := uint64(len(b.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		idx := b.slots[i]
		if idx == 0 {
			return -1
		}
		e := &b.entries[idx-1]
		if e.hash == h && bytes.Equal(b.key(e), key) {
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

// grow doubles the slot table and rehashes every entry.
func (b *arenaBuffer) grow() {
	b.slots = make([]int32, 2*len(b.slots))
	for i := range b.entries {
		b.insertSlot(b.entries[i].hash, int32(i))
	}
}

// add buffers one pair, copying key and value into the arenas (Send promises
// the caller its buffers are free on return). It returns how many pairs the
// incremental combiner eliminated (0 without a combiner). Byte accounting is
// incremental: no walks outside the combine fold itself.
func (b *arenaBuffer) add(key, value []byte, combine CombineFunc) int64 {
	h := fnv1a(key)
	idx := b.find(h, key)
	if idx < 0 {
		if len(b.entries)*4 >= len(b.slots)*3 {
			b.grow()
		}
		idx = int32(len(b.entries))
		b.entries = append(b.entries, arenaEntry{
			hash:   h,
			keyOff: int32(len(b.keyArena)),
			keyLen: int32(len(key)),
		})
		b.keyArena = append(b.keyArena, key...)
		b.insertSlot(h, idx)
		b.payload += len(key)
	}
	b.appendValue(idx, value)
	b.payload += len(value)
	e := &b.entries[idx]
	if combine == nil || e.nvals < combineEvery {
		return 0
	}
	return b.combineEntry(idx, combine)
}

// appendValue copies value into the arena and links it at the entry's tail.
func (b *arenaBuffer) appendValue(idx int32, value []byte) {
	off := int32(len(b.valArena))
	b.valArena = append(b.valArena, value...)
	node := int32(len(b.nodes))
	b.nodes = append(b.nodes, valNode{off: off, len: int32(len(value))})
	e := &b.entries[idx]
	if e.tail != 0 {
		b.nodes[e.tail-1].next = node + 1
	} else {
		e.head = node + 1
	}
	e.tail = node + 1
	e.nvals++
}

// materialize walks an entry's chain into the reusable scratch slice. The
// returned slices alias valArena and are valid until the next arena append.
func (b *arenaBuffer) materialize(idx int32) [][]byte {
	e := &b.entries[idx]
	vs := b.scratch[:0]
	for n := e.head; n != 0; n = b.nodes[n-1].next {
		nd := &b.nodes[n-1]
		vs = append(vs, b.valArena[nd.off:nd.off+nd.len])
	}
	b.scratch = vs
	return vs
}

// combineEntry folds an entry's value chain through the combiner and rebuilds
// the chain from the result. Old value bytes become arena garbage until the
// next reset, which is the trade the incremental combiner exists to make: it
// runs precisely to keep hot-key chains short, so the dead bytes it strands
// are bounded by combineEvery values per fold.
func (b *arenaBuffer) combineEntry(idx int32, combine CombineFunc) int64 {
	vs := b.materialize(idx)
	oldLen, oldBytes := len(vs), 0
	for _, v := range vs {
		oldBytes += len(v)
	}
	out := combine(b.key(&b.entries[idx]), vs)
	// Rebuild the chain from the combined list. The returned slices may
	// alias valArena; append copies them to fresh offsets before the chain
	// is repointed, and Go's copy is overlap-safe in the non-growing case.
	e := &b.entries[idx]
	e.head, e.tail, e.nvals = 0, 0, 0
	newBytes := 0
	for _, v := range out {
		b.appendValue(idx, v)
		newBytes += len(v)
	}
	b.payload += newBytes - oldBytes
	return int64(oldLen - len(out))
}

// bytes reports the buffered payload byte count (each key once plus every
// buffered value), the quantity SpillThreshold is compared against.
func (b *arenaBuffer) bytes() int { return b.payload }

func (b *arenaBuffer) empty() bool { return len(b.entries) == 0 }

// reset forgets all buffered pairs but keeps every backing array, so the
// next fill cycle allocates only if it outgrows the previous ones.
func (b *arenaBuffer) reset() {
	b.keyArena = b.keyArena[:0]
	b.valArena = b.valArena[:0]
	b.entries = b.entries[:0]
	b.nodes = b.nodes[:0]
	for i := range b.slots {
		b.slots[i] = 0
	}
	b.payload = 0
}

// forEachSorted yields each distinct key with its materialized value list,
// keys in lexicographic order — the iteration order spill serializes, which
// the receive-side k-way merge relies on. The yielded slices alias the
// arenas and are invalid after the callback returns.
func (b *arenaBuffer) forEachSorted(fn func(key []byte, values [][]byte) error) error {
	order := b.order[:0]
	for i := range b.entries {
		order = append(order, sortKey{keyPrefix(b.key(&b.entries[i])), int32(i)})
	}
	slices.SortFunc(order, func(x, y sortKey) int {
		if c := cmp.Compare(x.prefix, y.prefix); c != 0 {
			return c
		}
		return bytes.Compare(b.key(&b.entries[x.idx]), b.key(&b.entries[y.idx]))
	})
	b.order = order
	for _, sk := range order {
		if err := fn(b.key(&b.entries[sk.idx]), b.materialize(sk.idx)); err != nil {
			return err
		}
	}
	return nil
}
