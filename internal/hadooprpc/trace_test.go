package hadooprpc

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/ict-repro/mpid/internal/trace"
)

// traceTestProtocol registers one plain handler and one traced handler on
// the same protocol — the mixed deployment the back-compat contract must
// survive: old-style handlers served by a trace-aware dispatcher, and
// trace-aware handlers called by clients that may or may not send context.
func traceTestProtocol(t *testing.T, gotCtx *[][]byte) *Protocol {
	return &Protocol{
		Name:    "org.ict.mpid.TraceTestProtocol",
		Version: 1,
		Methods: map[string]Handler{
			// A legacy handler with a strict parameter-count check. If the
			// dispatcher leaked the trailing trace param, this would fail.
			"legacy": func(params [][]byte) ([]byte, error) {
				if len(params) != 2 {
					return nil, fmt.Errorf("legacy wants 2 params, got %d", len(params))
				}
				return append(append([]byte{}, params[0]...), params[1]...), nil
			},
		},
		Traced: map[string]TracedHandler{
			"aware": func(tctx []byte, params [][]byte) ([]byte, error) {
				*gotCtx = append(*gotCtx, append([]byte(nil), tctx...))
				if len(params) != 1 {
					return nil, fmt.Errorf("aware wants 1 param, got %d", len(params))
				}
				return params[0], nil
			},
		},
	}
}

// TestTraceContextBackCompat proves the propagation contract on one server:
//   - a traced call to a legacy handler is served as if untraced (the
//     dispatcher strips the trailing context param);
//   - an untraced call to a traced handler delivers a nil context;
//   - a traced call to a traced handler delivers the exact encoded context.
func TestTraceContextBackCompat(t *testing.T) {
	var seen [][]byte
	s := NewServer()
	s.Register(traceTestProtocol(t, &seen))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, "org.ict.mpid.TraceTestProtocol", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := trace.Context{Trace: 77, Span: 13}
	tctx := trace.EncodeContext(ctx)

	// Traced call, legacy handler: strict param count must hold.
	got, err := c.CallTraced(tctx, "legacy", []byte("ab"), []byte("cd"))
	if err != nil {
		t.Fatalf("traced call to legacy handler: %v", err)
	}
	if !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("legacy handler returned %q", got)
	}

	// Untraced call, traced handler: context must arrive nil.
	if _, err := c.CallTraced(nil, "aware", []byte("x")); err != nil {
		t.Fatalf("untraced call to traced handler: %v", err)
	}

	// Traced call, traced handler: context must round-trip exactly.
	if _, err := c.CallTraced(tctx, "aware", []byte("y")); err != nil {
		t.Fatalf("traced call to traced handler: %v", err)
	}

	if len(seen) != 2 {
		t.Fatalf("traced handler invoked %d times, want 2", len(seen))
	}
	if len(seen[0]) != 0 {
		t.Fatalf("untraced call delivered context %x", seen[0])
	}
	dec, err := trace.DecodeContext(seen[1])
	if err != nil || dec != ctx {
		t.Fatalf("context did not survive the wire: %v %v", dec, err)
	}
}

// TestTraceParamSkippedOnWire checks the framing directly: a traced frame
// decodes into the same params as an untraced one, with the context routed
// aside, and a frame carrying an unknown future type tag still decodes.
func TestTraceParamSkippedOnWire(t *testing.T) {
	params := [][]byte{[]byte("p0"), []byte("p1")}
	tctx := trace.EncodeContext(trace.Context{Trace: 1, Span: 2})

	plain, err := encodeCall(3, "proto", "m", params, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := encodeCall(3, "proto", "m", params, tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) <= len(plain) {
		t.Fatal("traced frame not larger than plain frame")
	}

	for name, frame := range map[string][]byte{"plain": plain, "traced": traced} {
		c, err := readCall(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.params) != 2 || !bytes.Equal(c.params[0], params[0]) || !bytes.Equal(c.params[1], params[1]) {
			t.Fatalf("%s: params corrupted: %q", name, c.params)
		}
		if name == "plain" && len(c.tctx) != 0 {
			t.Fatalf("plain frame produced context %x", c.tctx)
		}
		if name == "traced" && !bytes.Equal(c.tctx, tctx) {
			t.Fatalf("traced frame lost context: %x", c.tctx)
		}
	}
}
