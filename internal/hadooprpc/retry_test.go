package hadooprpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/obs"
)

// startSlowServer serves a "wait" method that blocks until the returned
// channel is closed, plus an "echo" passthrough.
func startSlowServer(t *testing.T) (string, chan struct{}) {
	t.Helper()
	block := make(chan struct{})
	s := NewServer()
	s.Register(&Protocol{
		Name:    "slow",
		Version: 1,
		Methods: map[string]Handler{
			"wait": func([][]byte) ([]byte, error) {
				<-block
				return []byte("late"), nil
			},
			"echo": func(p [][]byte) ([]byte, error) { return p[0], nil },
		},
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, block
}

// TestClientCallTimeout cuts off a call the server never answers under the
// default budget (one attempt): the expiry is a *DeadlineError like any
// other, not a bare timeout.
func TestClientCallTimeout(t *testing.T) {
	addr, block := startSlowServer(t)
	defer close(block)
	c, err := DialOptions(addr, "slow", 1, Options{CallTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call("wait")
	if err == nil {
		t.Fatal("blocked call returned without error")
	} else if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	var de *DeadlineError
	if !IsDeadline(err) || !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *DeadlineError", err, err)
	}
	if de.Method != "wait" || de.Attempts != 1 || de.Elapsed < 80*time.Millisecond {
		t.Fatalf("DeadlineError = %+v, want method wait, 1 attempt, at least 80ms elapsed", de)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
	// The abandoned connection is replaced transparently on the next call
	// when retries are off but the client is not closed.
	if _, err := c.Call("echo", []byte("back")); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
}

// TestMuxClientCallTimeout is the multiplexed side of a call timeout: the
// expiring call abandons the connection it shares, so a call queued behind
// it on the same connection fails with it, and the next call redials.
func TestMuxClientCallTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{}, 1)
	s := NewServer()
	s.Register(&Protocol{
		Name:    "slow",
		Version: 1,
		Methods: map[string]Handler{
			"wait": func([][]byte) ([]byte, error) {
				entered <- struct{}{}
				<-block
				return []byte("late"), nil
			},
			"echo": func(p [][]byte) ([]byte, error) { return p[0], nil },
		},
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialOptions(addr, "slow", 1, Options{CallTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitErr := make(chan error, 1)
	go func() {
		_, err := c.Call("wait")
		waitErr <- err
	}()
	<-entered
	// The server holds the connection on "wait", so this call sits pending
	// behind it until the timeout tears the connection down. Starting it
	// well into the first call's budget keeps its own deadline clear of
	// that teardown.
	time.Sleep(150 * time.Millisecond)
	if _, err := c.Call("echo", []byte("queued")); !errors.Is(err, errConnAbandoned) {
		t.Fatalf("queued call err = %v, want connection abandoned", err)
	}
	if err := <-waitErr; !IsDeadline(err) {
		t.Fatalf("blocked call err = %v, want deadline", err)
	}
	got, err := c.Call("echo", []byte("fresh"))
	if err != nil || string(got) != "fresh" {
		t.Fatalf("call after timeout = %q, %v", got, err)
	}
}

func TestClientRetriesTransientInjectedFaults(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", Until: 2, Action: faults.Fail})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		MaxAttempts: 5,
		Backoff:     faults.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("recv", []byte("through the storm"))
	if err != nil || string(got) != "through the storm" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if n := inj.Count("hadooprpc.client", "call"); n != 3 {
		t.Fatalf("attempts = %d, want 3 (2 injected failures + 1 success)", n)
	}
}

func TestClientReconnectsAfterDroppedConnection(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", After: 1, Until: 2, Action: faults.Drop})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		MaxAttempts: 4,
		Backoff:     faults.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.Call("recv", []byte("one")); err != nil || string(got) != "one" {
		t.Fatalf("first call: %q, %v", got, err)
	}
	// Second call's connection is torn down mid-flight; the retry must
	// transparently reconnect and succeed.
	if got, err := c.Call("recv", []byte("two")); err != nil || string(got) != "two" {
		t.Fatalf("post-drop call: %q, %v", got, err)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", Action: faults.Fail})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		MaxAttempts: 3,
		Backoff:     faults.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("recv", []byte("doomed")); !faults.IsInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	if n := inj.Count("hadooprpc.client", "call"); n != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts = 3", n)
	}
}

// TestClientRecordsRetryAndDeadlineEvents checks that the fault-tolerance
// edges reach Options.Telemetry.Events: one obs.EvRPCRetry per retried
// attempt and one obs.EvRPCDeadline when a Call's budget expires.
func TestClientRecordsRetryAndDeadlineEvents(t *testing.T) {
	addr := startEchoServer(t)
	rec := obs.NewRecorder(0)
	inj := faults.New(1,
		faults.Rule{Operation: "call", Peer: "recv", Until: 2, Action: faults.Fail},
		faults.Rule{Operation: "call", Peer: "doomed", Action: faults.Fail})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		CallTimeout: 200 * time.Millisecond,
		MaxAttempts: 1000,
		Backoff:     faults.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Injector:    inj,
		Telemetry:   obs.Telemetry{Events: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.Call("recv", []byte("late")); err != nil || string(got) != "late" {
		t.Fatalf("call = %q, %v", got, err)
	}
	if n := len(rec.OfType(obs.EvRPCRetry)); n != 2 {
		t.Fatalf("%d retry events after 2 injected failures, want 2", n)
	}
	if n := len(rec.OfType(obs.EvRPCDeadline)); n != 0 {
		t.Fatalf("%d deadline events before any budget expired", n)
	}
	if _, err := c.Call("doomed"); !IsDeadline(err) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
	deadlines := rec.OfType(obs.EvRPCDeadline)
	if len(deadlines) != 1 || !strings.Contains(deadlines[0].Detail, "doomed") {
		t.Fatalf("deadline events = %+v, want one naming the doomed call", deadlines)
	}
	if retries := len(rec.OfType(obs.EvRPCRetry)); retries <= 2 {
		t.Fatalf("%d retry events in all, want the doomed call's retries too", retries)
	}
}

func TestClientRemoteErrorsNotRetried(t *testing.T) {
	addr := startEchoServer(t)
	// The injector has no rules; it only counts "call" attempts.
	inj := faults.New(1)
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		MaxAttempts: 5,
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, callErr := c.Call("no-such-method")
	if callErr == nil || !IsRemote(callErr) {
		t.Fatalf("err = %v, want remote", callErr)
	}
	if n := inj.Count("hadooprpc.client", "call"); n != 1 {
		t.Fatalf("remote error retried: %d attempts", n)
	}
}

func TestDialInjectedFaultSurfaces(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "dial", Action: faults.Fail})
	if _, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{Injector: inj}); !faults.IsInjected(err) {
		t.Fatalf("Dial err = %v, want injected", err)
	}
}

func TestCrashedComponentNotRetried(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", After: 1, Action: faults.Crash})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		MaxAttempts: 10,
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("recv", []byte("ok")); err != nil {
		t.Fatalf("pre-crash call: %v", err)
	}
	if _, err := c.Call("recv", []byte("dead")); !faults.IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	// Crash is permanent: only 2 "call" checks, no retry burn.
	if n := inj.Count("hadooprpc.client", "call"); n != 2 {
		t.Fatalf("crash retried: %d attempts", n)
	}
	if !errors.Is(inj.Check("hadooprpc.client", "call", ""), faults.ErrCrashed) {
		t.Fatal("component not poisoned")
	}
}
