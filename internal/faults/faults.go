// Package faults is a deterministic, seedable fault-injection layer for the
// live communication substrates (hadooprpc, jetty, the mpi TCP transport)
// and the fault-tolerance helpers those substrates use to survive it
// (bounded retry with exponential backoff and jitter).
//
// The injector is rule-driven: each Rule matches an operation by component
// name, operation name, peer and the per-(component, operation) call count,
// and fires an Action — fail the operation, delay it, drop the underlying
// connection, or crash the component permanently. Probabilistic rules draw
// from a seeded generator, so a given seed produces one reproducible fault
// schedule. Components consult the injector at explicit injection points
// (Check) or implicitly through a wrapped net.Conn (WrapConn).
//
// A nil *Injector is valid everywhere and injects nothing, so production
// call sites thread it unconditionally.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// Action is what a matched rule does to the operation.
type Action int

const (
	// Fail returns an error from the operation; the component is otherwise
	// healthy (a transient fault — retryable).
	Fail Action = iota + 1
	// Delay sleeps for the rule's Delay, then lets the operation proceed.
	Delay
	// Drop fails the operation and tears down the underlying connection
	// (wrapped conns are closed) — the mid-stream connection loss case.
	Drop
	// Crash kills the component permanently: this and every later Check
	// for the component returns ErrCrashed, modelling process death.
	Crash
)

// Sentinel errors produced by injected faults. All of them unwrap to
// ErrInjected so tolerant code can classify them as synthetic transport
// faults.
var (
	ErrInjected    = errors.New("faults: injected fault")
	ErrCrashed     = fmt.Errorf("component crashed: %w", ErrInjected)
	ErrDropped     = fmt.Errorf("connection dropped: %w", ErrInjected)
	ErrPartitioned = fmt.Errorf("network partitioned: %w", ErrInjected)
)

// IsInjected reports whether err originated from an injector.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// IsCrash reports whether err is a permanent component crash.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// Rule matches operations and fires an action. Zero-valued match fields are
// wildcards. Counting is per (component, operation): the first matching
// call of an operation on a component has count 1.
type Rule struct {
	// Component, Operation, Peer select operations; "" matches any.
	Component string
	Operation string
	Peer      string
	// After skips the first After matching calls (fire from call After+1).
	After int
	// Until, when > 0, stops the rule firing past that call count.
	Until int
	// Every, when > 0, fires only every Every-th call inside the window.
	Every int
	// Probability, when in (0, 1), gates each firing on a seeded coin
	// flip; 0 or >= 1 means fire deterministically.
	Probability float64
	// Action is what happens; Fail if unset.
	Action Action
	// Delay is the injected latency for Action == Delay.
	Delay time.Duration
	// Err overrides the returned error (defaults to a sentinel).
	Err error
}

type opKey struct{ component, operation string }

// Injector evaluates rules. All methods are safe for concurrent use, and
// all methods on a nil receiver are no-ops that inject nothing.
type Injector struct {
	mu          sync.Mutex
	rng         *rand.Rand
	rules       []Rule
	counts      map[opKey]int
	crashed     map[string]bool
	partitioned map[[2]string]bool
	tel         obs.Telemetry
}

// New creates an injector whose probabilistic draws are driven by seed.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:         rand.New(rand.NewSource(seed)),
		rules:       rules,
		counts:      make(map[opKey]int),
		crashed:     make(map[string]bool),
		partitioned: make(map[[2]string]bool),
	}
}

// SetTelemetry wires observers into the injector. Every fired fault bumps
// tel.Metrics' "faults.injected" counter plus a per-action one
// ("faults.injected.<fail|delay|drop|crash>"), records an instant
// trace.KindFault span named "fault.<fail|delay|drop|crash>" on tel.Tracer
// annotated with the component, operation and peer it hit, and emits an
// obs.EvFault event on tel.Events cross-linked to that span. Nil members
// (or a nil injector) record nothing.
func (in *Injector) SetTelemetry(tel obs.Telemetry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tel = tel
}

// Add appends a rule.
func (in *Injector) Add(r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, r)
}

// Partition severs the pair (a, b): Checks where one side is the component
// and the other the peer fail with ErrPartitioned, in both directions.
func (in *Injector) Partition(a, b string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partitioned[[2]string{a, b}] = true
	in.partitioned[[2]string{b, a}] = true
}

// Heal removes a partition installed by Partition.
func (in *Injector) Heal(a, b string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.partitioned, [2]string{a, b})
	delete(in.partitioned, [2]string{b, a})
}

// CrashComponent kills a component directly (no rule needed).
func (in *Injector) CrashComponent(component string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashed[component] = true
}

// Crashed reports whether the component has been crashed.
func (in *Injector) Crashed(component string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[component]
}

// Count returns how many times (component, operation) has been checked.
func (in *Injector) Count(component, operation string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[opKey{component, operation}]
}

// Check records one occurrence of (component, operation, peer) and returns
// the injected error, if any rule fires. Delay actions sleep here, then
// return nil. Crash actions poison the component permanently.
func (in *Injector) Check(component, operation, peer string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if in.crashed[component] {
		in.mu.Unlock()
		return fmt.Errorf("%s: %w", component, ErrCrashed)
	}
	if in.partitioned[[2]string{component, peer}] {
		in.mu.Unlock()
		return fmt.Errorf("%s <-> %s: %w", component, peer, ErrPartitioned)
	}
	key := opKey{component, operation}
	in.counts[key]++
	count := in.counts[key]

	var fired *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if !match(r.Component, component) || !match(r.Operation, operation) || !match(r.Peer, peer) {
			continue
		}
		if count <= r.After {
			continue
		}
		if r.Until > 0 && count > r.Until {
			continue
		}
		if r.Every > 0 && (count-r.After)%r.Every != 0 {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		fired = r
		break
	}
	if fired == nil {
		in.mu.Unlock()
		return nil
	}
	action := fired.Action
	if action == 0 {
		action = Fail
	}
	if action == Crash {
		in.crashed[component] = true
	}
	errOverride, delay := fired.Err, fired.Delay
	tel := in.tel
	in.mu.Unlock()

	tel.Metrics.Counter("faults.injected").Inc()
	tel.Metrics.Counter("faults.injected." + actionName(action)).Inc()
	ictx := tel.Tracer.Instant(trace.Context{}, "fault."+actionName(action), trace.KindFault,
		trace.Annotation{Key: "component", Value: component},
		trace.Annotation{Key: "operation", Value: operation},
		trace.Annotation{Key: "peer", Value: peer})
	detail := fmt.Sprintf("%s: %s/%s", actionName(action), component, operation)
	if peer != "" {
		detail += " peer=" + peer
	}
	tel.Events.Emit(obs.Event{Type: obs.EvFault, Span: ictx.Span, Trace: ictx.Trace, Detail: detail})

	switch action {
	case Delay:
		time.Sleep(delay)
		return nil
	case Drop:
		if errOverride != nil {
			return errOverride
		}
		return fmt.Errorf("%s/%s: %w", component, operation, ErrDropped)
	case Crash:
		return fmt.Errorf("%s: %w", component, ErrCrashed)
	default: // Fail
		if errOverride != nil {
			return errOverride
		}
		return fmt.Errorf("%s/%s: %w", component, operation, ErrInjected)
	}
}

// match is the wildcard-aware field comparison.
func match(pattern, value string) bool { return pattern == "" || pattern == value }

// actionName labels an action for metric names.
func actionName(a Action) string {
	switch a {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Crash:
		return "crash"
	default:
		return "fail"
	}
}
