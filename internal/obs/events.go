// Package obs is the post-mortem observability layer over the live stack:
// a flight recorder of typed structured events (internal/metrics answers
// "how much", internal/trace answers "where did the time go", this package
// answers "what happened, in what order"), OpenMetrics text exposition of
// a metrics snapshot for external scrapers, and Telemetry, the one value
// jobs and the engines emit into.
//
// Design points, following internal/metrics and internal/faults:
//
//   - a nil *Recorder is valid everywhere and records nothing, so hot
//     paths thread it unconditionally;
//   - the recorder is a bounded ring: a long-lived daemon keeps the newest
//     events at fixed memory, counting what it dropped;
//   - per-job child recorders stamp their job/tenant identity and fold
//     every event into the service-wide parent ring, the way
//     metrics.NewChild folds counters into fleet totals;
//   - events carry the trace span id of the work they describe, so a
//     flight-recorder line cross-links to the span in /trace.json;
//   - Telemetry bundles a registry, a tracer and a recorder into the one
//     value every layer of the live stack takes.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event types the live stack emits. Free-form strings; these constants name
// the ones with dedicated emission points.
const (
	// EvJobAdmitted: the service accepted a submission (serve.Submit).
	EvJobAdmitted = "job.admitted"
	// EvJobRejected: admission control pushed a submission back (saturated
	// or draining).
	EvJobRejected = "job.rejected"
	// EvJobDone / EvJobFailed: a job finished.
	EvJobDone   = "job.done"
	EvJobFailed = "job.failed"
	// EvJobDrained: a still-unfinished job was canceled by a drain timeout.
	EvJobDrained = "job.drained"
	// EvServiceDrain: graceful shutdown began; no further admissions.
	EvServiceDrain = "service.drain"

	// EvAttemptScheduled: the jobtracker launched one task attempt. Span is
	// the scheduler-side attempt span.
	EvAttemptScheduled = "attempt.scheduled"
	// EvAttemptFailed / EvAttemptLost / EvAttemptSuperseded: the attempt
	// span ended with that status.
	EvAttemptFailed     = "attempt.failed"
	EvAttemptLost       = "attempt.lost"
	EvAttemptSuperseded = "attempt.superseded"

	// EvRPCRetry / EvRPCDeadline: a hadooprpc call retried a transport
	// failure / exhausted its total time budget.
	EvRPCRetry    = "rpc.retry"
	EvRPCDeadline = "rpc.deadline"

	// EvFetchRetry: a jetty shuffle fetch retried against the same server.
	EvFetchRetry = "fetch.retry"
	// EvFetchFail: a shuffle fetch failed for good; the reducer reports it.
	// Span is the reducer-side fetch span.
	EvFetchFail = "fetch.fail"
	// EvFetchRedirect: the jobtracker re-queued a map whose output proved
	// unfetchable, redirecting reducers to the re-execution.
	EvFetchRedirect = "fetch.redirect"

	// EvFault: the injector fired. Span is the KindFault instant span.
	EvFault = "fault.injected"

	// EvSpill: a map task published its sorted partitions to the shuffle
	// store. Span is the map.spill phase span.
	EvSpill = "spill"
)

// Event is one flight-recorder entry: what happened, to which job/task
// attempt, and which trace span describes the same work.
type Event struct {
	// Seq is a process-wide emission sequence number: merged parent and
	// child rings interleave consistently by Seq.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Job and Tenant identify the owning submission in a multi-tenant
	// service; child recorders stamp them automatically.
	Job    int64  `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Task is the engine task key ("m3", "r1") when the event concerns one.
	Task string `json:"task,omitempty"`
	// Attempt is the 1-based execution count for attempt-scoped events.
	Attempt int `json:"attempt,omitempty"`
	// Span and Trace cross-link to the trace span describing the same work
	// (0 when the event has no span).
	Span  uint64 `json:"span,omitempty"`
	Trace uint64 `json:"trace,omitempty"`
	// Detail is free-form context: the error, the peer, the byte count.
	Detail string `json:"detail,omitempty"`
}

// DefaultEventCap bounds a recorder's ring when no capacity is given.
const DefaultEventCap = 4096

// eventSeq hands out process-wide event sequence numbers, mirroring the
// trace package's process-wide span ids: events from concurrent jobs folded
// into one service ring still have a total order.
var eventSeq atomic.Uint64

// Recorder is a bounded, concurrency-safe ring of events. All methods on a
// nil *Recorder are no-ops, matching the nil-registry contract.
type Recorder struct {
	parent *Recorder
	job    int64
	tenant string

	mu    sync.Mutex
	ring  []Event
	next  int // overwrite position once the ring is full
	cap   int
	total uint64 // lifetime emissions into this ring
}

// NewRecorder creates a recorder retaining the newest capacity events
// (DefaultEventCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Recorder{cap: capacity}
}

// NewChild creates a recorder scoped to one job: every event it emits is
// stamped with the job id and tenant and also folded into r's ring (and
// transitively into r's own parent), the way metrics.NewChild feeds fleet
// totals. A nil receiver returns a fresh parentless recorder, so per-job
// code never branches.
func (r *Recorder) NewChild(job int64, tenant string) *Recorder {
	if r == nil {
		c := NewRecorder(0)
		c.job, c.tenant = job, tenant
		return c
	}
	return &Recorder{parent: r, job: job, tenant: tenant, cap: r.cap}
}

// Emit records one event, stamping Seq, Time (when zero) and the
// recorder's job/tenant identity (when unset), then folds it into every
// ancestor ring.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.Job == 0 {
		e.Job = r.job
	}
	if e.Tenant == "" {
		e.Tenant = r.tenant
	}
	e.Seq = eventSeq.Add(1)
	for rec := r; rec != nil; rec = rec.parent {
		rec.add(e)
	}
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % r.cap
}

// Events snapshots the retained events, oldest first (by Seq).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	r.mu.Unlock()
	// Wraparound order is per-ring arrival order; concurrent emitters can
	// land slightly out of Seq order, so sort for a deterministic view.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// OfType returns the retained events of one type, oldest first.
func (r *Recorder) OfType(eventType string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Type == eventType {
			out = append(out, e)
		}
	}
	return out
}

// Len is the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Total is the lifetime number of events emitted into this ring.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped is how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.ring))
}

// RenderEvents renders events as the fixed-width table /events serves.
func RenderEvents(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-20s %5s %-10s %-6s %3s %10s  %s\n",
		"seq", "time", "type", "job", "tenant", "task", "att", "span", "detail")
	for _, e := range events {
		job, att, span := "", "", ""
		if e.Job != 0 {
			job = fmt.Sprint(e.Job)
		}
		if e.Attempt != 0 {
			att = fmt.Sprint(e.Attempt)
		}
		if e.Span != 0 {
			span = fmt.Sprint(e.Span)
		}
		fmt.Fprintf(&b, "%-8d %-12s %-20s %5s %-10s %-6s %3s %10s  %s\n",
			e.Seq, e.Time.Format("15:04:05.000"), e.Type, job, e.Tenant, e.Task, att, span, e.Detail)
	}
	return b.String()
}
