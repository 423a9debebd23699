package hadooprpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
)

// The CallTimeout is a total per-call budget: attempts, reconnects and
// backoff sleeps all draw from it, and expiry surfaces as a *DeadlineError
// wrapping the last attempt's failure. Before this, each attempt got the
// full timeout, so a generous retry budget could multiply the configured
// deadline many times over.

// TestCallTimeoutIsTotalBudget drives a client against a permanent
// injected fault with a retry budget far larger than the deadline allows.
// The call must give up when the budget expires — not after MaxAttempts —
// and report the expiry as a typed DeadlineError.
func TestCallTimeoutIsTotalBudget(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", Action: faults.Fail})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		CallTimeout: 100 * time.Millisecond,
		MaxAttempts: 1000,
		Backoff:     faults.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call("recv", []byte("doomed"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call under permanent fault returned nil error")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *DeadlineError", err, err)
	}
	if !IsDeadline(err) {
		t.Fatalf("IsDeadline(%v) = false", err)
	}
	if de.Method != "recv" {
		t.Fatalf("DeadlineError.Method = %q, want recv", de.Method)
	}
	if de.Attempts < 1 || de.Attempts >= 1000 {
		t.Fatalf("DeadlineError.Attempts = %d, want a few (budget, not MaxAttempts, must stop the call)", de.Attempts)
	}
	// The typed wrapper must expose the last attempt's real failure.
	if !faults.IsInjected(de.Cause) {
		t.Fatalf("DeadlineError.Cause = %v, want the injected fault", de.Cause)
	}
	if !faults.IsInjected(err) {
		t.Fatalf("errors.Is through DeadlineError lost the cause: %v", err)
	}
	// One total budget, not per-attempt: with 1000 attempts the old
	// semantics would run for ~100 s. Allow slack for one in-flight
	// attempt plus scheduling noise.
	if elapsed > 2*time.Second {
		t.Fatalf("call consumed %v, want about the 100 ms budget", elapsed)
	}
}

// TestDeadlineCoversReconnects drops the connection on every attempt, so
// each retry pays a reconnect: the budget must bound the whole
// dial-call-drop cycle, not just the in-flight calls.
func TestDeadlineCoversReconnects(t *testing.T) {
	addr := startEchoServer(t)
	inj := faults.New(1, faults.Rule{Operation: "call", Action: faults.Drop})
	c, err := DialOptions(addr, EchoProtocolName, EchoProtocolVersion, Options{
		CallTimeout: 100 * time.Millisecond,
		MaxAttempts: 1000,
		Backoff:     faults.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Injector:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if _, err := c.Call("recv", []byte("doomed")); !IsDeadline(err) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("reconnect loop consumed %v, want about the 100 ms budget", elapsed)
	}
}

// TestDeadlineErrorMessage pins the rendered form other layers grep for.
func TestDeadlineErrorMessage(t *testing.T) {
	de := &DeadlineError{Method: "heartbeat", Attempts: 4, Elapsed: 120 * time.Millisecond, Cause: errors.New("boom")}
	msg := de.Error()
	for _, want := range []string{"heartbeat", "timed out", "4 attempts", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("DeadlineError message %q missing %q", msg, want)
		}
	}
}
