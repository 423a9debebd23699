package hadooprpc

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"github.com/ict-repro/mpid/internal/trace"
)

// TestTraceParamSkippedOnWire builds the frame an older client sent
// for a traced call — the call's parameters plus one parameter tagged
// org.ict.mpid.TraceContext holding an encoded trace.Context — and checks
// that it decodes to the plain frame's parameters, wherever the extra
// parameter sits (older clients appended it last).
func TestTraceParamSkippedOnWire(t *testing.T) {
	params := [][]byte{[]byte("p0"), []byte("p1")}
	plain, err := encodeCall(3, "proto", "m", params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readCall(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	tctx := trace.EncodeContext(trace.Context{Trace: 77, Span: 13})
	for at := 0; at <= len(params); at++ {
		body := &lenBuffer{}
		writeString(body, "proto")
		writeString(body, "m")
		body.Write(binary.BigEndian.AppendUint32(nil, uint32(len(params)+1)))
		for i, p := range slices.Insert(slices.Clone(params), at, tctx) {
			tag := paramTypeName
			if i == at {
				tag = "org.ict.mpid.TraceContext"
			}
			writeString(body, tag)
			body.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
			body.Write(p)
		}
		frame := binary.BigEndian.AppendUint32(nil, 3)
		frame = binary.BigEndian.AppendUint32(frame, uint32(body.Len()))
		frame = append(frame, body.Bytes()...)

		got, err := readCall(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("trace parameter at %d: %v", at, err)
		}
		if got.id != want.id || got.protocol != want.protocol || got.method != want.method ||
			!slices.EqualFunc(got.params, want.params, bytes.Equal) {
			t.Fatalf("trace parameter at %d: decoded %+v, want %+v", at, got, want)
		}
	}
}
