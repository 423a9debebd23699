// Package trace is the distributed-tracing substrate for the live stack: a
// concurrency-safe span collector plus a propagation format that travels in
// the jobtracker's register response and as an HTTP header (jetty), so one
// job's wall time can be attributed span by span across the jobtracker, the
// tasktrackers and the shuffle servers — the per-task timeline view behind
// the paper's Figure 1, but for a single live run instead of an aggregate.
//
// The aggregate metrics layer (internal/metrics) answers "how much time did
// the copy stage take across the job"; this package answers "why did reducer
// 3 stall" — which fetch retried, which map re-execution pushed the tail,
// which injected fault started the cascade. Spans carry trace/span/parent
// ids, a kind, wall-clock start/end and ordered annotations; finished spans
// accumulate in a Tracer, which names one process lane, and are drained
// from it into the job's collector (Add), exported as Chrome trace-event
// JSON (ChromeTrace) or rendered as a fixed-width ASCII timeline
// (RenderTimeline).
//
// Design points, following internal/metrics and internal/faults:
//
//   - a nil *Tracer is valid everywhere and records nothing, and every
//     method on the nil *Span it hands out is a no-op, so hot paths thread
//     tracing unconditionally without branching at call sites;
//   - span and trace ids come from one process-wide atomic counter, so ids
//     are unique across every tracer in the process (the mini-cluster's
//     "machines" share an address space, so their lanes hand finished spans
//     to one collector instead of shipping them);
//   - Context is the unit of propagation: binary in the register response,
//     "trace-span" hex text in the HTTP header.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds. Kind is free-form; these constants name the ones the live
// stack emits.
const (
	KindJob     = "job"     // the jobtracker's root span for one job
	KindAttempt = "attempt" // scheduler-side view of one task attempt
	KindTask    = "task"    // tracker-side execution of one task attempt
	KindPhase   = "phase"   // map run/spill, reduce copy/sort/reduce
	KindMerge   = "merge"   // one background merge pass inside the copy phase
	KindFetch   = "fetch"   // one shuffle fetch of one map output
	KindServe   = "serve"   // shuffle-server side of a fetch
	KindFault   = "fault"   // an injected fault firing (instant span)
)

// Annotation is one ordered key=value note on a span.
type Annotation struct {
	Key, Value string
}

// Span is one timed operation. Live spans handed out by a Tracer are
// mutated through their methods (guarded by the tracer's lock) until End;
// finished spans are plain immutable records — the form Drain hands out
// and JobReport exposes.
type Span struct {
	Trace  uint64 // trace id, shared by every span of one job
	ID     uint64 // span id, process-unique
	Parent uint64 // parent span id, 0 for roots
	Name   string // e.g. "m3", "reduce.copy", "fetch m7"
	Kind   string
	Proc   string // emitting process lane: "jobtracker", "tracker0", "faults"
	Start  time.Time
	Finish time.Time
	Notes  []Annotation

	tracer *Tracer // nil in finished records; set while live
	ended  bool
}

// Context is the propagated identity of a span: enough for a remote
// component to parent its own spans under the caller's.
type Context struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a real trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// idCounter hands out process-unique span and trace ids. Starting above 0
// keeps 0 free as the "no parent / no trace" sentinel.
var idCounter atomic.Uint64

func newID() uint64 { return idCounter.Add(1) }

// Tracer is a span factory and collector for one process lane. Methods are
// safe for concurrent use; all methods on a nil *Tracer are no-ops that
// return nil spans.
type Tracer struct {
	proc string

	mu      sync.Mutex
	done    []Span // finished spans awaiting Drain/Spans
	cap     int    // when > 0, retain only the newest cap finished spans
	dropped uint64 // spans discarded by the cap
}

// New creates a tracer whose spans are labelled with the given process
// lane name.
func New(proc string) *Tracer { return &Tracer{proc: proc} }

// Proc returns the tracer's process lane name.
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// StartRoot opens a span beginning a fresh trace.
func (t *Tracer) StartRoot(name, kind string) *Span {
	if t == nil {
		return nil
	}
	return t.start(Context{}, name, kind)
}

// StartChild opens a span inside the given parent context. An invalid
// context starts a fresh trace instead, so callers need not special-case
// untraced peers.
func (t *Tracer) StartChild(parent Context, name, kind string) *Span {
	if t == nil {
		return nil
	}
	return t.start(parent, name, kind)
}

func (t *Tracer) start(parent Context, name, kind string) *Span {
	s := &Span{
		ID:     newID(),
		Name:   name,
		Kind:   kind,
		Proc:   t.proc,
		Start:  time.Now(),
		tracer: t,
	}
	if parent.Valid() {
		s.Trace, s.Parent = parent.Trace, parent.Span
	} else {
		s.Trace = newID()
	}
	return s
}

// Record adds an already-finished span with explicit start and finish
// times — for work measured elsewhere and reported after the fact, like a
// background merge pass whose observer only fires on completion.
func (t *Tracer) Record(parent Context, name, kind string, start, finish time.Time, notes ...Annotation) {
	if t == nil {
		return
	}
	s := Span{
		ID:     newID(),
		Name:   name,
		Kind:   kind,
		Proc:   t.proc,
		Start:  start,
		Finish: finish,
		Notes:  append([]Annotation(nil), notes...),
	}
	if parent.Valid() {
		s.Trace, s.Parent = parent.Trace, parent.Span
	} else {
		s.Trace = newID()
	}
	t.Add(s)
}

// Instant records an already-finished zero-duration span (an event): the
// fault injector's firings use it. It returns the recorded span's context so
// callers can cross-link the event elsewhere (a nil tracer returns the zero
// Context).
func (t *Tracer) Instant(parent Context, name, kind string, notes ...Annotation) Context {
	if t == nil {
		return Context{}
	}
	s := t.start(parent, name, kind)
	s.Notes = append(s.Notes, notes...)
	s.End()
	return s.Context()
}

// SetCap bounds the number of finished spans the tracer retains: once more
// than n accumulate, the oldest are discarded (counted by Dropped). A
// per-job tracer never needs this — one job's spans are bounded — but a
// long-lived daemon aggregating every job's spans into one admin view
// would otherwise grow without limit. n <= 0 removes the bound.
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cap = n
	t.trimLocked()
	t.mu.Unlock()
}

// Dropped reports how many finished spans the retention cap has discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// trimLocked enforces the retention cap, keeping the newest spans.
func (t *Tracer) trimLocked() {
	if t.cap <= 0 || len(t.done) <= t.cap {
		return
	}
	drop := len(t.done) - t.cap
	t.dropped += uint64(drop)
	// Copy down rather than re-slicing so the dropped prefix is freed.
	kept := make([]Span, t.cap)
	copy(kept, t.done[drop:])
	t.done = kept
}

// Add merges finished spans (typically another lane's Drain) into this
// collector.
func (t *Tracer) Add(spans ...Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.done = append(t.done, spans...)
	t.trimLocked()
	t.mu.Unlock()
}

// Drain removes and returns the finished spans collected so far, for
// another tracer's Add: a tasktracker drains its lane into the job's
// collector on every heartbeat and task report.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// Spans returns a copy of the finished spans without removing them, sorted
// by start time for stable rendering.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.done...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Len reports the number of finished spans held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Context returns the span's propagation context (zero for nil spans, so
// children of an untraced parent start fresh traces).
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.Trace, Span: s.ID}
}

// Annotate appends one key=value note. No-op on nil or finished spans.
func (s *Span) Annotate(key, value string) {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if !s.ended {
		s.Notes = append(s.Notes, Annotation{Key: key, Value: value})
	}
	t.mu.Unlock()
}

// Child opens a sub-span in the same tracer.
func (s *Span) Child(name, kind string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.StartChild(s.Context(), name, kind)
}

// End finishes the span and hands it to its tracer's collector. Idempotent;
// only the first End counts.
func (s *Span) End() {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	s.Finish = time.Now()
	rec := *s
	rec.tracer = nil
	rec.Notes = append([]Annotation(nil), s.Notes...)
	t.done = append(t.done, rec)
	t.trimLocked()
	t.mu.Unlock()
}

// Duration is the finished span's wall time.
func (s Span) Duration() time.Duration { return s.Finish.Sub(s.Start) }

// Note returns the value of the first annotation with the given key, or "".
func (s Span) Note(key string) string {
	for _, a := range s.Notes {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
