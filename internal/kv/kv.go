// Package kv implements the key-value data model that MPI-D and the
// MapReduce framework operate on, together with Hadoop-compatible binary
// encodings.
//
// The paper's central observation (§III) is that MapReduce programs operate
// on "non-contiguous and variable sized key-value pair data", which MPI's
// contiguous fixed-size buffers do not capture. This package supplies the
// variable-size representation (Pair) and the serialization used when MPI-D
// realigns pairs into contiguous partitions: the same wire formats Hadoop's
// Writable types use — zero-compressed variable-length integers (VInt/VLong)
// and length-prefixed byte strings — so the realigned buffers carry no fixed
// padding.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Pair is a single key-value record. Keys and values are opaque bytes; the
// comparator and partitioner decide their meaning.
type Pair struct {
	Key   []byte
	Value []byte
}

// P builds a Pair from strings, a convenience for tests and examples.
func P(key, value string) Pair { return Pair{Key: []byte(key), Value: []byte(value)} }

// String renders the pair as key\tvalue, Hadoop's text output format.
func (p Pair) String() string { return fmt.Sprintf("%s\t%s", p.Key, p.Value) }

// Size returns the payload size in bytes (key + value, without framing).
func (p Pair) Size() int { return len(p.Key) + len(p.Value) }

// Clone deep-copies the pair so the caller may reuse its buffers.
func (p Pair) Clone() Pair {
	return Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
}

// KeyList is a key with the list of all values collected for it — the
// <K, {V1, V1'}> shape the MPI-D combiner produces (§IV.A).
type KeyList struct {
	Key    []byte
	Values [][]byte
}

// Size returns the payload size in bytes.
func (kl KeyList) Size() int {
	n := len(kl.Key)
	for _, v := range kl.Values {
		n += len(v)
	}
	return n
}

// Compare orders keys lexicographically, the default Hadoop raw comparator.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Prefix is a key's first eight bytes as a big-endian integer, a shorter key
// zero-padded. Prefixes order keys as Compare does up to their eighth byte:
// unequal prefixes decide, equal ones leave the full keys to compare (keys
// sharing eight bytes, or "a" and "a\x00", which padding cannot tell apart).
func Prefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// ---------------------------------------------------------------------------
// Hadoop VInt/VLong zero-compressed encoding.
//
// Format (org.apache.hadoop.io.WritableUtils): values in [-112, 127] are a
// single byte. Otherwise the first byte encodes sign and byte-count:
// -113..-120 mean a positive value of 1..8 following big-endian bytes,
// -121..-128 mean a negated value of 1..8 following bytes.

var errVIntTruncated = errors.New("kv: truncated vint")

// AppendVLong appends the zero-compressed encoding of v to dst. The one-byte
// case is split from the rest so that this function inlines.
func AppendVLong(dst []byte, v int64) []byte {
	if v >= -112 && v <= 127 {
		return append(dst, byte(v))
	}
	return appendLongVLong(dst, v)
}

// appendLongVLong is AppendVLong for a value outside [-112, 127].
func appendLongVLong(dst []byte, v int64) []byte {
	length := -112
	if v < 0 {
		v = ^v // v = -(v+1)
		length = -120
	}
	tmp := v
	for tmp != 0 {
		tmp >>= 8
		length--
	}
	dst = append(dst, byte(length))
	var n int
	if length < -120 {
		n = -(length + 120)
	} else {
		n = -(length + 112)
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// ReadVLong decodes a zero-compressed integer from b, returning the value
// and the number of bytes consumed. It does not inline, and splitting off
// the one-byte case as AppendVLong does would not make it: with the error
// result the split function measures 94 against the inliner's budget of 80.
func ReadVLong(b []byte) (int64, int, error) {
	if len(b) == 0 {
		return 0, 0, errVIntTruncated
	}
	first := int8(b[0])
	if first >= -112 {
		return int64(first), 1, nil
	}
	var n int
	neg := false
	if first < -120 {
		n = -(int(first) + 120)
		neg = true
	} else {
		n = -(int(first) + 112)
	}
	if len(b) < 1+n {
		return 0, 0, errVIntTruncated
	}
	var v int64
	for i := 0; i < n; i++ {
		v = v<<8 | int64(b[1+i])
	}
	if neg {
		v = ^v
	}
	return v, 1 + n, nil
}

// VLongSize returns the encoded size of v in bytes without encoding it.
func VLongSize(v int64) int {
	if v >= -112 && v <= 127 {
		return 1
	}
	if v < 0 {
		v = ^v
	}
	n := 0
	for v != 0 {
		v >>= 8
		n++
	}
	return 1 + n
}

// ---------------------------------------------------------------------------
// Length-prefixed byte strings (Text / BytesWritable analogue).

// AppendBytes appends a VInt length prefix followed by the raw bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendVLong(dst, int64(len(b)))
	return append(dst, b...)
}

// ReadBytes decodes a length-prefixed byte string, returning a subslice of b
// (no copy) and bytes consumed. Like ReadVLong it stays over the inliner's
// budget with a one-byte fast path split off (111 against 80).
func ReadBytes(b []byte) ([]byte, int, error) {
	n, used, err := ReadVLong(b)
	if err != nil {
		return nil, 0, err
	}
	if n < 0 || int64(len(b)-used) < n {
		return nil, 0, errVIntTruncated
	}
	return b[used : used+int(n) : used+int(n)], used + int(n), nil
}

// BytesSize returns the encoded size of a length-prefixed byte string.
func BytesSize(b []byte) int { return VLongSize(int64(len(b))) + len(b) }

// ---------------------------------------------------------------------------
// Pair stream encoding: the on-the-wire format of a realigned partition.
// Each record is AppendBytes(key) ++ AppendBytes(value); a partition is a
// plain concatenation, so it can be scanned sequentially.

// AppendPair appends the framed encoding of p to dst.
func AppendPair(dst []byte, p Pair) []byte {
	dst = AppendBytes(dst, p.Key)
	return AppendBytes(dst, p.Value)
}

// PairSize returns the framed size of p.
func PairSize(p Pair) int { return BytesSize(p.Key) + BytesSize(p.Value) }

// ReadPair decodes one framed pair, returning subslices of b and bytes
// consumed.
func ReadPair(b []byte) (Pair, int, error) {
	k, n1, err := ReadBytes(b)
	if err != nil {
		return Pair{}, 0, err
	}
	v, n2, err := ReadBytes(b[n1:])
	if err != nil {
		return Pair{}, 0, err
	}
	return Pair{Key: k, Value: v}, n1 + n2, nil
}

// AppendKeyList appends the framed encoding of a key with its value list:
// key, value count, then each value.
func AppendKeyList(dst []byte, kl KeyList) []byte {
	dst = AppendBytes(dst, kl.Key)
	dst = AppendVLong(dst, int64(len(kl.Values)))
	for _, v := range kl.Values {
		dst = AppendBytes(dst, v)
	}
	return dst
}

// KeyListSize returns the framed size of kl.
func KeyListSize(kl KeyList) int {
	n := BytesSize(kl.Key) + VLongSize(int64(len(kl.Values)))
	for _, v := range kl.Values {
		n += BytesSize(v)
	}
	return n
}

// ReadKeyList decodes one framed key-list, returning subslices of b.
func ReadKeyList(b []byte) (KeyList, int, error) {
	k, n, err := ReadBytes(b)
	if err != nil {
		return KeyList{}, 0, err
	}
	cnt, used, err := ReadVLong(b[n:])
	if err != nil {
		return KeyList{}, 0, err
	}
	n += used
	// Every value costs at least its one-byte length prefix, so a count
	// beyond the remaining bytes is corrupt; rejecting it here keeps a
	// hostile count from sizing the allocation below.
	if cnt < 0 || cnt > int64(len(b)-n) {
		return KeyList{}, 0, fmt.Errorf("kv: value count %d in %d remaining bytes", cnt, len(b)-n)
	}
	kl := KeyList{Key: k, Values: make([][]byte, cnt)}
	for i := range kl.Values {
		v, used, err := ReadBytes(b[n:])
		if err != nil {
			return KeyList{}, 0, err
		}
		kl.Values[i] = v
		n += used
	}
	return kl, n, nil
}

// ListArena carves value-list headers out of shared chunks, so building the
// value lists of a stream of keys costs one allocation per chunk instead of
// one per key. Lists handed out never overlap and stay valid for as long as
// the caller keeps them; a chunk is garbage once every list cut from it is.
// The zero value is ready to use.
type ListArena struct {
	free [][]byte
}

// listArenaChunk is the header count of one arena chunk (24 KiB of headers).
const listArenaChunk = 1024

// Take returns a zeroed n-element list with no spare capacity, so an append
// by the caller cannot run into a neighbouring list.
func (a *ListArena) Take(n int) [][]byte {
	if n > listArenaChunk/4 {
		return make([][]byte, n)
	}
	if len(a.free) < n {
		a.free = make([][]byte, listArenaChunk)
	}
	vs := a.free[:n:n]
	a.free = a.free[n:]
	return vs
}
