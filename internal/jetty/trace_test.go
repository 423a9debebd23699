package jetty

import (
	"context"
	"testing"

	"github.com/ict-repro/mpid/internal/trace"
)

// TestServeSpanPropagation: a traced fetch must produce a serve span on the
// server parented under the fetcher's context; an untraced fetch must
// produce a root serve span; a traced fetch against a tracer-less server
// must still succeed (the header is ignored).
func TestServeSpanPropagation(t *testing.T) {
	store := NewStore()
	key := OutputKey{Job: "job0", Map: 3, Reduce: 1}
	store.Put(key, []byte("payload"))
	srv := NewServer(store)
	srv.Tracer = trace.New("tracker0")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient()
	defer c.Close()

	fetcher := trace.New("tracker1")
	fspan := fetcher.StartRoot("fetch m3", trace.KindFetch)
	if _, err := c.FetchMapOutputContext(context.Background(), fspan.Context(), addr, key); err != nil {
		t.Fatal(err)
	}
	fspan.End()
	if _, err := c.FetchMapOutput(addr, key); err != nil {
		t.Fatal(err)
	}

	spans := srv.Tracer.Drain()
	if len(spans) != 2 {
		t.Fatalf("server recorded %d spans, want 2", len(spans))
	}
	traced, untraced := spans[0], spans[1]
	if traced.Trace != fspan.Context().Trace || traced.Parent != fspan.Context().Span {
		t.Fatalf("serve span not parented under fetch: %+v vs %+v", traced, fspan.Context())
	}
	if traced.Kind != trace.KindServe || traced.Note("bytes") != "7" {
		t.Fatalf("serve span malformed: %+v", traced)
	}
	if untraced.Parent != 0 || untraced.Trace == traced.Trace {
		t.Fatalf("untraced fetch did not start a fresh root: %+v", untraced)
	}

	// Tracer-less server: the header must be harmless.
	srv2 := NewServer(store)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := c.FetchMapOutputContext(context.Background(), fspan.Context(), addr2, key); err != nil {
		t.Fatalf("traced fetch against untraced server: %v", err)
	}
}
