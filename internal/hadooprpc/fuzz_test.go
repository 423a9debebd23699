package hadooprpc

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzHadoopRPCFrame feeds arbitrary bytes to the two frame decoders every
// call and reply crosses, readCall on the server and readResponse on the
// client. Whatever the bytes claim, each returns an error rather than
// panicking, and allocates at most maxFrame for the frame it is told to
// expect beyond copies of the bytes it was actually sent. Seeds live in
// testdata/fuzz: well-formed calls and replies, cut-short frames, a frame
// one byte over the limit, a parameter count over its bound and a parameter
// longer than its frame.
func FuzzHadoopRPCFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The body is allocated as claimed, as Hadoop's server does, and a
		// call copies its parameters out of it; 64 KiB covers the longest
		// string a frame can name and the decoders' own headers.
		limit := uint64(maxFrame + 2*len(data) + 64<<10)
		if n := allocated(func() { _, _ = readCall(bytes.NewReader(data)) }); n > limit {
			t.Fatalf("readCall allocated %d bytes for %d, limit %d", n, len(data), limit)
		}
		if n := allocated(func() { _, _, _ = readResponse(bytes.NewReader(data)) }); n > limit {
			t.Fatalf("readResponse allocated %d bytes for %d, limit %d", n, len(data), limit)
		}
	})
}
