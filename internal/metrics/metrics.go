// Package metrics is the observability substrate for the live stack: a
// lightweight, concurrency-safe registry of named counters, gauges and
// timers that the runtime components (hadooprpc clients, the jetty shuffle
// path, the fault injector and the hadoop engine) report into, and that
// per-job reports render from.
//
// The paper's central measurement (§II.A) is a per-phase time breakdown —
// where does a reduce task's wall time go? The simulators produce those
// numbers from modelled time; this package produces them from real runs, so
// simulated and live copy-share can be cross-checked at matching scale.
//
// Design points, following the repository's fault-injection layer:
//
//   - a nil *Registry is valid everywhere and records nothing, so hot paths
//     thread it unconditionally without branching at call sites;
//   - metric handles (Counter, Gauge, Timer) are cheap to look up and
//     cheaper to update — counters and gauges are a single atomic op;
//   - timers keep exact count/sum/min/max and a decimated sample for
//     percentiles, so long runs stay bounded in memory;
//   - Snapshot returns a consistent copy for export, and String renders the
//     fixed-width tables the experiment harness prints (internal/stats).
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/stats"
)

// Counter is a monotonically increasing count. All methods on a nil
// *Counter are no-ops, matching the nil-registry contract. Counters handed
// out by a child registry (NewChild) carry a parent handle and propagate
// every update to it.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored: counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
	c.parent.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can move both ways (queue depths, live trackers).
// Child-registry gauges propagate relative moves (Add) to their parent, so
// the parent sees the aggregate level across children; Set stores an
// absolute value and is deliberately local — absolute levels from different
// children do not compose.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set stores the value. Never propagated to a parent gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
	g.parent.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// timerSampleCap bounds a timer's retained observations. When the buffer
// fills, it is decimated (every second value kept) and the sampling stride
// doubles, so long runs keep a uniform-ish spread at bounded memory.
const timerSampleCap = 4096

// Timer accumulates duration observations (in seconds) with exact
// count/sum/min/max and a decimated sample for percentiles.
type Timer struct {
	parent *Timer

	mu     sync.Mutex
	count  int64
	sum    float64
	min    float64
	max    float64
	sample []float64
	stride int64 // record every stride-th observation into sample
	seen   int64 // observations since last sampled one
}

// Observe records one observation.
func (t *Timer) Observe(v float64) {
	if t == nil {
		return
	}
	t.parent.Observe(v)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || v < t.min {
		t.min = v
	}
	if t.count == 0 || v > t.max {
		t.max = v
	}
	t.count++
	t.sum += v
	if t.stride == 0 {
		t.stride = 1
	}
	t.seen++
	if t.seen >= t.stride {
		t.seen = 0
		t.sample = append(t.sample, v)
		if len(t.sample) >= timerSampleCap {
			keep := t.sample[:0]
			for i := 1; i < len(t.sample); i += 2 {
				keep = append(keep, t.sample[i])
			}
			t.sample = keep
			t.stride *= 2
		}
	}
}

// ObserveDuration records a duration in seconds.
func (t *Timer) ObserveDuration(d time.Duration) { t.Observe(d.Seconds()) }

// Time runs fn and records its wall time in seconds.
func (t *Timer) Time(fn func()) {
	start := time.Now()
	fn()
	t.ObserveDuration(time.Since(start))
}

// TimerStats is an exported summary of one timer. Percentiles are exact
// while the timer has seen fewer than timerSampleCap observations and come
// from the decimated sample afterwards.
type TimerStats struct {
	Count               int64
	Sum, Min, Max, Mean float64
	P50, P95, P99       float64
}

// Stats summarizes the timer. Percentiles come from the decimated sample.
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TimerStats{Count: t.count, Sum: t.sum, Min: t.min, Max: t.max}
	if t.count > 0 {
		s.Mean = t.sum / float64(t.count)
	}
	var sample stats.Summary
	for _, v := range t.sample {
		sample.Add(v)
	}
	s.P50, s.P95, s.P99 = sample.Percentile(50), sample.Percentile(95), sample.Percentile(99)
	return s
}

// Registry holds named metrics. The zero value is not usable — construct
// with NewRegistry — but a nil *Registry is: every method returns a nil
// handle or zero snapshot, and nil handles absorb updates.
type Registry struct {
	parent *Registry // set for child registries; updates propagate up

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// NewChild creates a registry scoped under r: every update to a child
// metric also feeds the same-named metric in r (and transitively in r's own
// parent). This is how a long-lived job service isolates per-job metrics
// without losing service-wide totals — each job records into its own child
// registry (so concurrent jobs never bleed counters into each other's
// report), while the parent accumulates the fleet aggregate; per-job
// counters sum exactly to the parent's totals. Gauge.Set is the one
// non-propagating update (absolute levels do not compose). A nil receiver
// returns a fresh parentless registry.
func (r *Registry) NewChild() *Registry {
	if r == nil {
		return NewRegistry()
	}
	c := NewRegistry()
	c.parent = r
	return c
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{parent: r.parent.Counter(name)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{parent: r.parent.Gauge(name)}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{parent: r.parent.Timer(name)}
		r.timers[name] = t
	}
	return t
}

// Snapshot is a consistent copy of every metric's current value.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Timers   map[string]TimerStats
}

// Counter returns a snapshotted counter value (0 when absent or nil).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot exports all metrics. A nil registry yields empty maps, so
// report-rendering code needs no nil checks.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Timers:   make(map[string]TimerStats),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range timers {
		snap.Timers[k] = v.Stats()
	}
	return snap
}

// String renders the snapshot as fixed-width tables (counters and gauges
// first, then timer summaries), the format every experiment report uses.
func (s Snapshot) String() string {
	var out string
	if len(s.Counters)+len(s.Gauges) > 0 {
		tb := stats.NewTable("metric", "value")
		for _, name := range sortedKeys(s.Counters) {
			tb.AddRow(name, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			tb.AddRow(name+" (gauge)", s.Gauges[name])
		}
		out += tb.String()
	}
	if len(s.Timers) > 0 {
		tb := stats.NewTable("timer", "count", "mean", "p50", "p95", "p99", "max", "total")
		names := make([]string, 0, len(s.Timers))
		for name := range s.Timers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := s.Timers[name]
			tb.AddRow(name, t.Count,
				stats.FormatDuration(secs(t.Mean)),
				stats.FormatDuration(secs(t.P50)),
				stats.FormatDuration(secs(t.P95)),
				stats.FormatDuration(secs(t.P99)),
				stats.FormatDuration(secs(t.Max)),
				stats.FormatDuration(secs(t.Sum)))
		}
		out += tb.String()
	}
	return out
}

// String renders the registry's current state.
func (r *Registry) String() string { return r.Snapshot().String() }

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
