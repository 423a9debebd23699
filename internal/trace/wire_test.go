package trace

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
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
// decodeAllocSlack. DecodeSpans admits at most one 160-byte Span per
// minSpanBytes input bytes and one 32-byte Annotation per minNoteBytes:
// 17.8 and 16 bytes per input byte before the allocator rounds up. The
// worst measured (amd64) is 22.2: 205 minimal spans in 1 848 bytes, whose
// 32 800-byte slice takes five 8 KiB pages.
const (
	decodeAllocPerByte = 24
	decodeAllocSlack   = 1 << 10
)

// TestDecodeSpansCountBomb feeds DecodeSpans a 4-byte batch whose count
// claims 2^20 spans and which carries none. It used to size its span slice
// by the claim, about 160 MiB, before reading a span; now the claim is
// checked against the bytes left and rejected first.
func TestDecodeSpansCountBomb(t *testing.T) {
	bomb := kv.AppendVLong(nil, 1<<20)
	var err error
	if n := allocated(func() { _, err = DecodeSpans(bomb) }); n >= 1<<10 {
		t.Fatalf("DecodeSpans allocated %d bytes for a %d-byte count bomb", n, len(bomb))
	}
	if err == nil {
		t.Fatal("count bomb accepted")
	}
}

// FuzzTraceWire feeds arbitrary bytes to the three trace decoders: the
// span batches tasktrackers ship to the jobtracker (DecodeSpans), the
// context an RPC call carries (DecodeContext) and the shuffle's
// X-Trace-Context header (ParseContext). Each returns an error rather than
// panicking and allocates at most decodeAllocPerByte per input byte plus
// decodeAllocSlack, whatever the counts in the bytes claim. What decodes
// re-encodes to the same value. Seeds live in testdata/fuzz: a well-formed
// batch, a cut-short one, a span-count bomb, an annotation-count bomb, a
// batch with trailing bytes, a context in each form and an overlong
// header.
func FuzzTraceWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(decodeAllocPerByte*len(data) + decodeAllocSlack)
		var (
			spans     []Span
			ctx, hctx Context
			errs      [3]error
		)
		for i, decode := range []func(){
			func() { spans, errs[0] = DecodeSpans(data) },
			func() { ctx, errs[1] = DecodeContext(data) },
			func() { hctx, errs[2] = ParseContext(string(data)) },
		} {
			if n := allocated(decode); n > limit {
				t.Fatalf("decoder %d allocated %d bytes for %d, limit %d", i, n, len(data), limit)
			}
		}
		if errs[0] == nil {
			again, err := DecodeSpans(EncodeSpans(spans))
			if err != nil || len(again) != len(spans) || len(spans) > 0 && !reflect.DeepEqual(again, spans) {
				t.Fatalf("spans do not survive a round trip: %v\n%+v\n%+v", err, spans, again)
			}
		}
		// An invalid context encodes to nothing, which is the zero context.
		canonical := func(c Context) Context {
			if !c.Valid() {
				return Context{}
			}
			return c
		}
		if errs[1] == nil {
			if again, err := DecodeContext(EncodeContext(ctx)); err != nil || again != canonical(ctx) {
				t.Fatalf("context %+v decodes again as %+v, %v", ctx, again, err)
			}
		}
		if errs[2] == nil {
			if again, err := ParseContext(hctx.String()); err != nil || again != canonical(hctx) {
				t.Fatalf("header context %+v parses again as %+v, %v", hctx, again, err)
			}
		}
	})
}
