package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/metrics"
)

// SeriesConfig selects what the sampler tracks; it keeps DefaultSeriesCap
// points of each series.
type SeriesConfig struct {
	// Interval between samples; DefaultSampleInterval when zero.
	Interval time.Duration
	// Counters are sampled as per-second rates (delta since the previous
	// sample over elapsed wall time), so a soak plot shows throughput, not
	// an ever-growing total.
	Counters []string
	// Gauges are sampled as instantaneous levels.
	Gauges []string
	// Timers expand to three series each — "<name>.p50", "<name>.p95",
	// "<name>.p99" — in milliseconds.
	Timers []string
}

const (
	// DefaultSampleInterval is the sampling period when SeriesConfig.Interval
	// is zero.
	DefaultSampleInterval = time.Second
	// DefaultSeriesCap is how many points each series retains.
	DefaultSeriesCap = 512
)

// Point is one sample: a unix-milli timestamp and a value.
type Point struct {
	UnixMs int64   `json:"t"`
	V      float64 `json:"v"`
}

// Series is one named ring of points in a Snapshot, oldest first.
type Series struct {
	Name string `json:"name"`
	// Kind is "rate" (counter deltas/s), "gauge" or "ms" (timer quantile).
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// SeriesSnapshot is the /series.json body.
type SeriesSnapshot struct {
	// IntervalMs is the configured sampling period.
	IntervalMs int64    `json:"interval_ms"`
	Series     []Series `json:"series"`
}

// Sampler periodically snapshots a metrics registry into fixed-size rings.
// All methods on a nil *Sampler are no-ops.
type Sampler struct {
	reg *metrics.Registry
	cfg SeriesConfig

	mu    sync.Mutex
	rings map[string]*ring
	kinds map[string]string
	// lastCounts/lastTime turn monotonic counters into per-second rates.
	lastCounts map[string]int64
	lastTime   time.Time
	stop       chan struct{}
	done       chan struct{}
}

// ring keeps a series' latest DefaultSeriesCap points.
type ring struct {
	pts  []Point
	next int
}

func (g *ring) add(p Point) {
	if len(g.pts) < DefaultSeriesCap {
		g.pts = append(g.pts, p)
		return
	}
	g.pts[g.next] = p
	g.next = (g.next + 1) % DefaultSeriesCap
}

func (g *ring) snapshot() []Point {
	out := make([]Point, 0, len(g.pts))
	out = append(out, g.pts[g.next:]...)
	out = append(out, g.pts[:g.next]...)
	return out
}

// NewSampler builds a sampler over reg. It does not start sampling; call
// Start, or drive Sample directly in tests.
func NewSampler(reg *metrics.Registry, cfg SeriesConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSampleInterval
	}
	return &Sampler{
		reg:        reg,
		cfg:        cfg,
		rings:      make(map[string]*ring),
		kinds:      make(map[string]string),
		lastCounts: make(map[string]int64),
	}
}

// Start launches the sampling goroutine. Safe to call once; pair with Stop.
func (s *Sampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				s.Sample(now)
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit.
func (s *Sampler) Stop() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

// Sample takes one sample at the given time. Exported so tests (and callers
// without a ticker) can drive the sampler deterministically.
func (s *Sampler) Sample(now time.Time) {
	if s == nil {
		return
	}
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := now.UnixMilli()
	elapsed := now.Sub(s.lastTime).Seconds()
	for _, name := range s.cfg.Counters {
		v := snap.Counters[name]
		// First sample has no baseline; record a zero rate rather than a
		// spike of the counter's whole history.
		var rate float64
		if !s.lastTime.IsZero() && elapsed > 0 {
			rate = float64(v-s.lastCounts[name]) / elapsed
		}
		s.lastCounts[name] = v
		s.put(name, "rate", Point{ms, rate})
	}
	for _, name := range s.cfg.Gauges {
		s.put(name, "gauge", Point{ms, float64(snap.Gauges[name])})
	}
	for _, name := range s.cfg.Timers {
		st := snap.Timers[name]
		s.put(name+".p50", "ms", Point{ms, st.P50 * 1000})
		s.put(name+".p95", "ms", Point{ms, st.P95 * 1000})
		s.put(name+".p99", "ms", Point{ms, st.P99 * 1000})
	}
	s.lastTime = now
}

func (s *Sampler) put(name, kind string, p Point) {
	g := s.rings[name]
	if g == nil {
		g = &ring{}
		s.rings[name] = g
		s.kinds[name] = kind
	}
	g.add(p)
}

// Snapshot returns the retained history, series sorted by name.
func (s *Sampler) Snapshot() SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SeriesSnapshot{IntervalMs: s.cfg.Interval.Milliseconds()}
	names := make([]string, 0, len(s.rings))
	for n := range s.rings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Series = append(out.Series, Series{Name: n, Kind: s.kinds[n], Points: s.rings[n].snapshot()})
	}
	return out
}

// MarshalJSON renders the sampler's snapshot as the /series.json body.
func (s *Sampler) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// sparkRunes are the eight block heights a sparkline cell can take.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as an ASCII sparkline of at most width cells (the
// newest values; width <= 0 means all), scaled min..max across the window.
func Spark(vals []float64, width int) string {
	if width > 0 && len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// RenderSeries renders the snapshot as the /series text page: one sparkline
// per series with its latest value and window extremes.
func RenderSeries(snap SeriesSnapshot, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time series (interval %dms, newest %d samples)\n", snap.IntervalMs, width)
	for _, sr := range snap.Series {
		vals := make([]float64, len(sr.Points))
		var last float64
		for i, p := range sr.Points {
			vals[i] = p.V
			last = p.V
		}
		lo, hi := last, last
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(&b, "  %-26s %-6s %s  last=%.3g min=%.3g max=%.3g\n",
			sr.Name, sr.Kind, Spark(vals, width), last, lo, hi)
	}
	return b.String()
}
