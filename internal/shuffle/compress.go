package shuffle

// Optional segment compression for the jetty shuffle wire
// (mapred.compress.map.output). DEFLATE at the fastest level: shuffle
// segments are short-lived and the point is trading a little CPU for wire
// bytes, not archival ratios. Writers and readers are pooled so the
// per-segment cost is one Reset, not one allocation.

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"github.com/ict-repro/mpid/internal/bufpool"
)

var flateWriters = sync.Pool{
	New: func() interface{} {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// Compress appends the DEFLATE encoding of src to dst and returns the
// result. dst may be nil or a recycled buffer ([:0]).
func Compress(dst, src []byte) []byte {
	buf := bytes.NewBuffer(dst)
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(buf)
	w.Write(src) // (*flate.Writer).Write to a bytes.Buffer cannot fail
	w.Close()
	flateWriters.Put(w)
	return buf.Bytes()
}

// Decompress inflates src, which must decode to exactly size bytes. The
// output buffer comes from pool when non-nil.
func Decompress(pool *bufpool.Pool, src []byte, size int) ([]byte, error) {
	out := pool.Get(size)
	r := flate.NewReader(bytes.NewReader(src))
	n, err := io.ReadFull(r, out)
	if err != nil {
		pool.Put(out)
		return nil, fmt.Errorf("shuffle: inflate: %w", err)
	}
	// The stream must end exactly at size: a longer payload means the
	// length header lied.
	if extra, _ := io.Copy(io.Discard, r); extra != 0 {
		pool.Put(out)
		return nil, fmt.Errorf("shuffle: inflate: %d bytes past declared size %d", extra, size)
	}
	r.Close()
	return out[:n], nil
}
