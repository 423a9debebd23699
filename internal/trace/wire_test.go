package trace

import (
	"math"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates: the fewest over five calls,
// since the count is process-wide and another goroutine allocating inside
// the window can only add to it. f must allocate the same each call.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// What decoding n input bytes may allocate: decodeAllocPerByte × n +
// decodeAllocSlack. ParseContext's caller copies the input into a string
// once, and an error quotes at most 40 bytes of it; DecodeContext allocates
// only its error.
const (
	decodeAllocPerByte = 2
	decodeAllocSlack   = 1 << 10
)

// FuzzTraceWire feeds arbitrary bytes to the two trace decoders: the
// binary context a register response carries (DecodeContext) and the
// shuffle's X-Trace-Context header (ParseContext). Each returns an error
// rather than panicking and allocates at most decodeAllocPerByte per input
// byte plus decodeAllocSlack. What decodes re-encodes to the same value.
// Seeds live in testdata/fuzz: a context in each form, an overlong header,
// and five span batches of a retired wire format (well-formed, cut short,
// two count bombs, trailing bytes), kept as inputs no decoder may trust.
func FuzzTraceWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(decodeAllocPerByte*len(data) + decodeAllocSlack)
		var (
			ctx, hctx Context
			errs      [2]error
		)
		for i, decode := range []func(){
			func() { ctx, errs[0] = DecodeContext(data) },
			func() { hctx, errs[1] = ParseContext(string(data)) },
		} {
			if n := allocated(decode); n > limit {
				t.Fatalf("decoder %d allocated %d bytes for %d, limit %d", i, n, len(data), limit)
			}
		}
		// An invalid context encodes to nothing, which is the zero context.
		canonical := func(c Context) Context {
			if !c.Valid() {
				return Context{}
			}
			return c
		}
		if errs[0] == nil {
			if again, err := DecodeContext(EncodeContext(ctx)); err != nil || again != canonical(ctx) {
				t.Fatalf("context %+v decodes again as %+v, %v", ctx, again, err)
			}
		}
		if errs[1] == nil {
			if again, err := ParseContext(hctx.String()); err != nil || again != canonical(hctx) {
				t.Fatalf("header context %+v parses again as %+v, %v", hctx, again, err)
			}
		}
	})
}
