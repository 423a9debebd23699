package hadooprpc

import (
	"errors"
	"fmt"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
)

// Options configures a client's fault-tolerance behaviour: connect and
// per-call deadlines, a bounded retry budget with exponential backoff and
// jitter, and an optional fault injector for chaos testing. The zero value
// gives sane production defaults with retries disabled, preserving the
// fail-fast semantics the benchmarks rely on.
type Options struct {
	// DialTimeout bounds the TCP connect (default 10 s; negative
	// disables). Without it a dead address blocks on OS defaults —
	// minutes on most systems.
	DialTimeout time.Duration
	// CallTimeout bounds one whole Call — every attempt, reconnect and
	// backoff sleep included — at 30 s by default (negative disables).
	// It is a total budget, not a per-attempt one: a flapping peer that
	// keeps half-answering cannot stretch a single Call to MaxAttempts ×
	// CallTimeout. When the budget expires before an attempt succeeds,
	// the Call returns a *DeadlineError wrapping the last attempt's
	// failure. A timed-out attempt abandons its connection: responses on
	// it can no longer be trusted to arrive.
	CallTimeout time.Duration
	// MaxAttempts is the total tries per Call, counting the first
	// (default 1 — no retries). Transport-level failures are retried
	// after reconnecting; remote handler errors are never retried.
	MaxAttempts int
	// Backoff shapes the delay between retries.
	Backoff faults.Backoff
	// Injector, when set, receives injection points: "dial" and "call"
	// operations on Component, plus "read"/"write" through the wrapped
	// connection.
	Injector *faults.Injector
	// Component names this client to the injector (default
	// "hadooprpc.client").
	Component string
	// Metrics, when set, receives per-call observability: "rpc.calls" and
	// "rpc.calls.<method>" counters, an "rpc.latency" timer over whole
	// Calls (retries included), "rpc.retries" and "rpc.errors" counters,
	// and "rpc.bytes_sent"/"rpc.bytes_recv" for framed wire bytes. A nil
	// registry records nothing.
	Metrics *metrics.Registry
	// Events, when set, receives flight-recorder events for the
	// fault-tolerance edges: obs.EvRPCRetry on every retried attempt and
	// obs.EvRPCDeadline when a Call's total budget expires. A nil recorder
	// records nothing.
	Events *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 1
	}
	if o.Component == "" {
		o.Component = "hadooprpc.client"
	}
	return o
}

// jitterSeed drives retry jitter; fixed, so backoff schedules reproduce.
const jitterSeed = 1

// IsRemote reports whether err is a per-call error returned by the server's
// handler (the connection stays usable, and retrying cannot help).
func IsRemote(err error) bool { return errors.Is(err, errRemote) }

// DeadlineError reports that a Call's total time budget
// (Options.CallTimeout) expired across its attempts before one succeeded.
// It wraps the last attempt's failure, so errors.Is/As see through to the
// underlying cause (an injected fault, an i/o timeout, a refused dial).
type DeadlineError struct {
	// Method is the RPC method the call was for.
	Method string
	// Attempts is how many attempts ran before the budget expired.
	Attempts int
	// Elapsed is the wall time the whole Call consumed.
	Elapsed time.Duration
	// Cause is the last attempt's failure.
	Cause error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("hadooprpc: call %s timed out after %v (%d attempts): %v",
		e.Method, e.Elapsed.Round(time.Millisecond), e.Attempts, e.Cause)
}

// Unwrap exposes the last attempt's cause.
func (e *DeadlineError) Unwrap() error { return e.Cause }

// IsDeadline reports whether err is a total-budget expiry (*DeadlineError).
func IsDeadline(err error) bool {
	var de *DeadlineError
	return errors.As(err, &de)
}

// retryable reports whether a failed call may succeed on a fresh attempt:
// transport failures and injected transient faults are; remote handler
// errors and component crashes are not.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, errRemote) && !faults.IsCrash(err)
}
