package mapred

import (
	"bytes"

	"github.com/ict-repro/mpid/internal/kv"
)

// LineSplit is the TextInputFormat analogue: records are lines, the key is
// the byte offset of the line within the split (as a VLong) and the value
// is the line without its newline.
type LineSplit struct {
	id   int
	data []byte
}

// NewLineSplit wraps a text buffer as a split.
func NewLineSplit(id int, data []byte) *LineSplit {
	return &LineSplit{id: id, data: data}
}

// ID implements Split.
func (s *LineSplit) ID() int { return s.id }

// Len returns the split size in bytes.
func (s *LineSplit) Len() int { return len(s.data) }

// keySlab is the size of the buffers LineSplit.Records carves offset keys
// from: hundreds of lines' keys per allocation.
const keySlab = 4 << 10

// maxVLong is the longest encoding kv.AppendVLong produces.
const maxVLong = 9

// Records implements Split, yielding (offset, line) records. The offset keys
// are carved from slabs the call allocates and never reuses, so a key stays
// valid after Records returns; each is capacity-limited, so an append to one
// cannot overwrite its neighbour.
func (s *LineSplit) Records(yield func(key, value []byte) error) error {
	data := s.data
	offset := int64(0)
	var slab []byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		var consumed int64
		if nl < 0 {
			line, consumed = data, int64(len(data))
		} else {
			line, consumed = data[:nl], int64(nl+1)
		}
		if cap(slab)-len(slab) < maxVLong {
			slab = make([]byte, 0, keySlab)
		}
		start := len(slab)
		slab = kv.AppendVLong(slab, offset)
		if err := yield(slab[start:len(slab):len(slab)], line); err != nil {
			return err
		}
		offset += consumed
		data = data[consumed:]
	}
	return nil
}

// SplitText chops a text buffer into roughly blockSize splits on line
// boundaries, the way HDFS blocks plus TextInputFormat split a file. Every
// byte of input lands in exactly one split.
func SplitText(data []byte, blockSize int) []Split {
	if blockSize <= 0 {
		blockSize = 64 << 20
	}
	var splits []Split
	id := 0
	for len(data) > 0 {
		end := blockSize
		if end >= len(data) {
			end = len(data)
		} else {
			// Extend to the end of the current line so records never
			// straddle splits.
			if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += nl + 1
			} else {
				end = len(data)
			}
		}
		splits = append(splits, NewLineSplit(id, data[:end]))
		id++
		data = data[end:]
	}
	return splits
}

// PairSplit is a split over pre-formed key-value records, used by the sort
// example where inputs are (key, value) records rather than text lines.
type PairSplit struct {
	id    int
	pairs []kv.Pair
}

// NewPairSplit wraps records as a split.
func NewPairSplit(id int, pairs []kv.Pair) *PairSplit {
	return &PairSplit{id: id, pairs: pairs}
}

// ID implements Split.
func (s *PairSplit) ID() int { return s.id }

// Len returns the split's key and value bytes.
func (s *PairSplit) Len() int {
	n := 0
	for _, p := range s.pairs {
		n += p.Size()
	}
	return n
}

// Records implements Split.
func (s *PairSplit) Records(yield func(key, value []byte) error) error {
	for _, p := range s.pairs {
		if err := yield(p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}
