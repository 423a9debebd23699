package jetty

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/metrics"
)

func startServer(t *testing.T) (*Store, *Server, string) {
	t.Helper()
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, srv, addr
}

func TestFetchMapOutput(t *testing.T) {
	store, _, addr := startServer(t)
	key := OutputKey{Job: "job_1", Map: 3, Reduce: 0}
	payload := bytes.Repeat([]byte("intermediate "), 1000)
	store.Put(key, payload)

	c := NewClient()
	defer c.Close()
	got, err := c.FetchMapOutput(addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %d bytes, want %d", len(got), len(payload))
	}
}

func TestFetchMissingOutputFails(t *testing.T) {
	_, _, addr := startServer(t)
	c := NewClient()
	defer c.Close()
	if _, err := c.FetchMapOutput(addr, OutputKey{Job: "none", Map: 0, Reduce: 0}); !IsGone(err) {
		t.Fatalf("fetch of missing output: got %v, want gone", err)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	k := OutputKey{Job: "j", Map: 1, Reduce: 2}
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store returned data")
	}
	s.Put(k, []byte("x"))
	if d, ok := s.Get(k); !ok || string(d) != "x" {
		t.Fatalf("Get = %q, %v", d, ok)
	}
	if _, ok := s.Get(OutputKey{Job: "j", Map: 1, Reduce: 3}); ok {
		t.Fatal("Get of another reduce returned data")
	}
}

func TestEmptyMapOutput(t *testing.T) {
	store, _, addr := startServer(t)
	key := OutputKey{Job: "j", Map: 0, Reduce: 5}
	store.Put(key, nil)
	c := NewClient()
	defer c.Close()
	got, err := c.FetchMapOutput(addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty output fetched as %d bytes", len(got))
	}
}

func TestStreamEndpointExactSize(t *testing.T) {
	_, _, addr := startServer(t)
	c := NewClient()
	defer c.Close()
	for _, size := range []int64{0, 1, 1000, 1 << 20} {
		n, err := c.FetchStream(addr, size, 4096)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if n != size {
			t.Fatalf("size %d: read %d bytes", size, n)
		}
	}
}

func TestStreamRejectsBadQuery(t *testing.T) {
	_, _, addr := startServer(t)
	c := NewClient()
	defer c.Close()
	if _, err := c.FetchStream(addr, -5, 4096); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestConcurrentFetches(t *testing.T) {
	// The copy stage is multi-threaded: many reducers fetch concurrently.
	store, _, addr := startServer(t)
	const maps, reduces = 4, 4
	for m := 0; m < maps; m++ {
		for r := 0; r < reduces; r++ {
			key := OutputKey{Job: "j", Map: m, Reduce: r}
			store.Put(key, []byte(fmt.Sprintf("m%d-r%d", m, r)))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, maps*reduces)
	for r := 0; r < reduces; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewClient()
			defer c.Close()
			for m := 0; m < maps; m++ {
				key := OutputKey{Job: "j", Map: m, Reduce: r}
				got, err := c.FetchMapOutput(addr, key)
				want := fmt.Sprintf("m%d-r%d", m, r)
				if err != nil || string(got) != want {
					errs <- fmt.Errorf("fetch %v: %q %v", key, got, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewStore())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPooledFetch(t *testing.T) {
	store, _, addr := startServer(t)
	key := OutputKey{Job: "job_1", Map: 0, Reduce: 0}
	payload := bytes.Repeat([]byte("pooled "), 1024)
	store.Put(key, payload)

	c := NewClient()
	defer c.Close()
	c.Pool = bufpool.New()
	for i := 0; i < 3; i++ {
		got, err := c.FetchMapOutput(addr, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("pooled fetch %d: %d bytes, want %d", i, len(got), len(payload))
		}
		c.Pool.Put(got)
	}
}

// TestServeCounters checks the serve counters once the handler is done:
// one serve of len(payload) body bytes.
func TestServeCounters(t *testing.T) {
	store, srv, addr := startServer(t)
	reg := metrics.NewRegistry()
	srv.Metrics = reg
	payload := bytes.Repeat([]byte("map output segment "), 4096)
	key := OutputKey{Job: "job_c", Map: 2, Reduce: 0}
	store.Put(key, payload)

	c := NewClient()
	defer c.Close()
	got, err := c.FetchMapOutput(addr, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %d bytes, want %d", len(got), len(payload))
	}
	// Shutdown returns once every connection is idle, that is once the
	// handler has returned, so the counters are read after its last write.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("waiting for the handler: %v", err)
	}
	if got := reg.Counter("shuffle.serves").Value(); got != 1 {
		t.Fatalf("serves = %d, want 1", got)
	}
	if got := reg.Counter("shuffle.serve_bytes").Value(); got != int64(len(payload)) {
		t.Fatalf("serve_bytes = %d, want %d", got, len(payload))
	}
}
