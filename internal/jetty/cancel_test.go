package jetty

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// The reduce copier's fetch loop is context-aware: a canceled job must stop
// its fetches promptly — mid-backoff and before new attempts — instead of
// running the full retry budget against a cluster that no longer exists.

// TestFetchContextCanceledBeforeAttempt never issues an HTTP request when
// the context is already dead.
func TestFetchContextCanceledBeforeAttempt(t *testing.T) {
	addr, store := startFaultyServer(t, nil)
	key := OutputKey{Job: "job", Map: 0, Reduce: 0}
	store.Put(key, []byte("never fetched"))

	inj := faults.New(1) // rule-free: counts attempts
	c := NewClient()
	defer c.Close()
	c.Injector = inj
	c.MaxAttempts = 5

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.FetchMapOutputContext(ctx, trace.Context{}, addr, key)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := inj.Count("jetty.client", "fetch"); n != 0 {
		t.Fatalf("dead context still issued %d attempts", n)
	}
}

// TestFetchContextCancelInterruptsBackoff cancels once the first attempt has
// failed and the client has announced its retry, so it is sleeping between
// retries or about to: the fetch must return with the context error well
// before the remaining backoff budget would have elapsed. Cancelling as soon
// as the injector has counted the attempt is not enough: a cancel that lands
// before the client checks its context after the attempt returns the
// attempt's own error.
func TestFetchContextCancelInterruptsBackoff(t *testing.T) {
	addr, store := startFaultyServer(t, nil)
	key := OutputKey{Job: "job", Map: 0, Reduce: 0}
	store.Put(key, []byte("unreachable"))

	// Every attempt fails, and the backoff between them is far longer than
	// the cancellation point.
	inj := faults.New(1, faults.Rule{Component: "jetty.client", Operation: "fetch"})
	c := NewClient()
	defer c.Close()
	c.Injector = inj
	c.Events = obs.NewRecorder(0)
	c.MaxAttempts = 50
	c.Backoff = faults.Backoff{Base: 2 * time.Second, Max: 2 * time.Second}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for len(c.Events.OfType(obs.EvFetchRetry)) == 0 {
			runtime.Gosched()
		}
		cancel()
	}()
	start := time.Now()
	_, err := c.FetchMapOutputContext(ctx, trace.Context{}, addr, key)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancel took %v to interrupt a 2 s backoff", elapsed)
	}
	if n := inj.Count("jetty.client", "fetch"); n != 1 {
		t.Fatalf("attempts = %d, want 1 (cancel must stop the retry loop)", n)
	}
}
