package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/metrics"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Type: "x"}) // must not panic
	if r.Events() != nil || r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder must report nothing")
	}
	c := r.NewChild(7, "alice")
	if c == nil {
		t.Fatal("NewChild on nil recorder must return a usable recorder")
	}
	c.Emit(Event{Type: "x"})
	got := c.Events()
	if len(got) != 1 || got[0].Job != 7 || got[0].Tenant != "alice" {
		t.Fatalf("child of nil recorder: events = %+v", got)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Type: "e", Attempt: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total/Dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
	ev := r.Events()
	// Newest 4 survive, oldest first.
	for i, e := range ev {
		if e.Attempt != 6+i {
			t.Fatalf("event %d has Attempt %d, want %d", i, e.Attempt, 6+i)
		}
		if i > 0 && ev[i-1].Seq >= e.Seq {
			t.Fatalf("events not in Seq order: %d then %d", ev[i-1].Seq, e.Seq)
		}
	}
}

func TestRecorderEmitStamps(t *testing.T) {
	r := NewRecorder(8)
	before := time.Now()
	r.Emit(Event{Type: EvSpill})
	ev := r.Events()
	if len(ev) != 1 {
		t.Fatalf("Len = %d, want 1", len(ev))
	}
	if ev[0].Seq == 0 {
		t.Fatal("Emit must stamp Seq")
	}
	if ev[0].Time.Before(before) {
		t.Fatal("Emit must stamp Time when zero")
	}
	// Explicit Time survives.
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	r.Emit(Event{Type: EvSpill, Time: fixed})
	ev = r.Events()
	if !ev[1].Time.Equal(fixed) {
		t.Fatalf("explicit Time overwritten: %v", ev[1].Time)
	}
}

func TestChildRecorderFoldsIntoParent(t *testing.T) {
	parent := NewRecorder(16)
	c1 := parent.NewChild(1, "alice")
	c2 := parent.NewChild(2, "bob")
	c1.Emit(Event{Type: EvAttemptScheduled, Task: "m0"})
	c2.Emit(Event{Type: EvAttemptLost, Task: "m1"})
	c1.Emit(Event{Type: EvJobDone})

	if got := len(parent.Events()); got != 3 {
		t.Fatalf("parent has %d events, want 3", got)
	}
	if got := len(c1.Events()); got != 2 {
		t.Fatalf("child1 has %d events, want 2", got)
	}
	for _, e := range c1.Events() {
		if e.Job != 1 || e.Tenant != "alice" {
			t.Fatalf("child event not stamped: %+v", e)
		}
	}
	// Parent view interleaves by Seq and keeps per-job identity.
	var jobs []int64
	for _, e := range parent.Events() {
		jobs = append(jobs, e.Job)
	}
	if jobs[0] != 1 || jobs[1] != 2 || jobs[2] != 1 {
		t.Fatalf("parent job order = %v, want [1 2 1]", jobs)
	}
	// A grandchild folds transitively.
	gc := c1.NewChild(0, "")
	gc.Emit(Event{Type: EvSpill})
	if got := len(parent.Events()); got != 4 {
		t.Fatalf("parent has %d events after grandchild emit, want 4", got)
	}
}

func TestRecorderOfType(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(Event{Type: EvSpill})
	r.Emit(Event{Type: EvAttemptLost})
	r.Emit(Event{Type: EvSpill})
	if got := len(r.OfType(EvSpill)); got != 2 {
		t.Fatalf("OfType(spill) = %d, want 2", got)
	}
	if got := len(r.OfType(EvFetchFail)); got != 0 {
		t.Fatalf("OfType(fetch.fail) = %d, want 0", got)
	}
}

// TestRecorderConcurrentEmit exercises the ring under the race detector:
// many goroutines emitting through children into one parent.
func TestRecorderConcurrentEmit(t *testing.T) {
	parent := NewRecorder(64)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := parent.NewChild(int64(w+1), "t")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Emit(Event{Type: EvSpill, Attempt: i})
			}
		}()
	}
	wg.Wait()
	if parent.Total() != workers*each {
		t.Fatalf("Total = %d, want %d", parent.Total(), workers*each)
	}
	if parent.Len() != 64 {
		t.Fatalf("Len = %d, want 64 (ring cap)", parent.Len())
	}
	ev := parent.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i-1].Seq >= ev[i].Seq {
			t.Fatalf("Events not strictly Seq-ordered at %d", i)
		}
	}
}

func TestRenderEvents(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(Event{Type: EvAttemptLost, Job: 3, Tenant: "alice", Task: "m1", Attempt: 1, Detail: "tracker 2 lost"})
	out := RenderEvents(r.Events())
	for _, want := range []string{"attempt.lost", "alice", "m1", "tracker 2 lost", "seq", "type"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderEvents missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkRecorderEmit is the overhead budget behind the "event emission
// costs <3% on a WordCount bench" acceptance point: emission is
// control-plane only (per attempt/spill/failure, never per record), so a
// sub-microsecond Emit is invisible next to a multi-millisecond task.
func BenchmarkRecorderEmit(b *testing.B) {
	r := NewRecorder(DefaultEventCap).NewChild(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Type: EvSpill, Task: "m0", Attempt: 1, Detail: "bench"})
	}
}

func TestWritePromLintsClean(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rpc.calls").Add(41)
	reg.Counter("serve.submitted").Inc()
	reg.Gauge("serve.running").Set(3)
	tm := reg.Timer("job.latency")
	for i := 1; i <= 100; i++ {
		tm.Observe(float64(i) / 1000)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, "mpid", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintProm(buf.Bytes()); err != nil {
		t.Fatalf("WriteProm output fails its own lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE mpid_rpc_calls counter",
		"mpid_rpc_calls_total 41",
		"# TYPE mpid_serve_running gauge",
		"mpid_serve_running 3",
		"# TYPE mpid_job_latency summary",
		"mpid_job_latency{quantile=\"0.5\"}",
		"mpid_job_latency{quantile=\"0.99\"}",
		"mpid_job_latency_count 100",
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition must end with # EOF:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"rpc.calls":    "mpid_rpc_calls",
		"shuffle-rate": "mpid_shuffle_rate",
		"a b":          "mpid_a_b",
	}
	for in, want := range cases {
		if got := PromName("mpid", in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := PromName("", "9lives"); got != "_9lives" {
		t.Fatalf("leading digit must be guarded, got %q", got)
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := map[string]string{
		"no EOF":             "# TYPE a counter\na_total 1\n",
		"empty line":         "# TYPE a counter\n\na_total 1\n# EOF\n",
		"undeclared sample":  "b 1\n# EOF\n",
		"counter w/o total":  "# TYPE a counter\na 1\n# EOF\n",
		"bad value":          "# TYPE a gauge\na one\n# EOF\n",
		"duplicate TYPE":     "# TYPE a gauge\n# TYPE a counter\na 1\n# EOF\n",
		"labeled gauge":      "# TYPE a gauge\na{x=\"1\"} 1\n# EOF\n",
		"bad summary suffix": "# TYPE a summary\na_bogus 1\n# EOF\n",
		"malformed TYPE":     "# TYPE a\na 1\n# EOF\n",
		"unknown kind":       "# TYPE a histogram\na 1\n# EOF\n",
	}
	for name, body := range cases {
		if err := LintProm([]byte(body)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, body)
		}
	}
	// A gauge legitimately named x_total must still lint: suffix stripping
	// only applies when the stripped family was declared.
	ok := "# TYPE x_total gauge\nx_total 5\n# EOF\n"
	if err := LintProm([]byte(ok)); err != nil {
		t.Errorf("gauge named x_total rejected: %v", err)
	}
}

func TestSamplerRatesAndRings(t *testing.T) {
	reg := metrics.NewRegistry()
	smp := NewSampler(reg, SeriesConfig{
		Counters: []string{"c"},
		Gauges:   []string{"g"},
		Timers:   []string{"t"},
	})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	// First sample: no baseline, so rate is zero (not a spike).
	reg.Counter("c").Add(100)
	smp.Sample(base)
	// Then 50 increments over 2 seconds = 25/s.
	reg.Counter("c").Add(50)
	reg.Gauge("g").Set(7)
	for i := 1; i <= 10; i++ {
		reg.Timer("t").Observe(float64(i) / 100) // 10..100 ms
	}
	smp.Sample(base.Add(2 * time.Second))

	snap := smp.Snapshot()
	byName := map[string]Series{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	c := byName["c"]
	if c.Kind != "rate" || len(c.Points) != 2 {
		t.Fatalf("counter series = %+v", c)
	}
	if c.Points[0].V != 0 {
		t.Fatalf("first counter sample rate = %v, want 0", c.Points[0].V)
	}
	if c.Points[1].V != 25 {
		t.Fatalf("counter rate = %v, want 25/s", c.Points[1].V)
	}
	if g := byName["g"]; g.Kind != "gauge" || g.Points[1].V != 7 {
		t.Fatalf("gauge series = %+v", g)
	}
	p50 := byName["t.p50"]
	if p50.Kind != "ms" || len(p50.Points) != 2 {
		t.Fatalf("timer p50 series = %+v", p50)
	}
	// 10..100ms observations: p50 is ~55ms; allow interpolation slack.
	if v := p50.Points[1].V; v < 40 || v > 70 {
		t.Fatalf("timer p50 = %v ms, want ~55", v)
	}
	if _, ok := byName["t.p99"]; !ok {
		t.Fatal("timer must expand to a .p99 series")
	}

	// Ring wraps at DefaultSeriesCap.
	for i := 3; i <= DefaultSeriesCap+6; i++ {
		smp.Sample(base.Add(time.Duration(i) * time.Second))
	}
	snap = smp.Snapshot()
	for _, s := range snap.Series {
		if len(s.Points) != DefaultSeriesCap {
			t.Fatalf("series %s has %d points, want %d (ring cap)", s.Name, len(s.Points), DefaultSeriesCap)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i-1].UnixMs >= s.Points[i].UnixMs {
				t.Fatalf("series %s points not oldest-first", s.Name)
			}
		}
	}

	// JSON body has the documented shape.
	body, err := smp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded SeriesSnapshot
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("series.json does not round-trip: %v", err)
	}
	if len(decoded.Series) != len(snap.Series) {
		t.Fatalf("round-trip lost series: %d vs %d", len(decoded.Series), len(snap.Series))
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Sample(time.Now())
	s.Stop()
	if snap := s.Snapshot(); len(snap.Series) != 0 {
		t.Fatal("nil sampler must report no series")
	}
}

func TestSamplerStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	smp := NewSampler(reg, SeriesConfig{Interval: time.Millisecond, Counters: []string{"c"}})
	smp.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(smp.Snapshot().Series) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	smp.Stop()
	if len(smp.Snapshot().Series) == 0 {
		t.Fatal("sampler goroutine took no samples")
	}
	smp.Stop() // second Stop is a no-op
}

func TestSpark(t *testing.T) {
	if got := Spark(nil, 10); got != "" {
		t.Fatalf("Spark(nil) = %q", got)
	}
	flat := Spark([]float64{5, 5, 5}, 10)
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q, want all-low", flat)
	}
	ramp := []rune(Spark([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 10))
	if len(ramp) != 8 || ramp[0] != '▁' || ramp[7] != '█' {
		t.Fatalf("ramp sparkline = %q", string(ramp))
	}
	// Width trims to the newest values.
	if got := Spark([]float64{0, 0, 9, 9}, 2); got != "▁▁" {
		t.Fatalf("trimmed sparkline = %q, want the two newest (flat) values", got)
	}
}

func TestRenderSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	smp := NewSampler(reg, SeriesConfig{Gauges: []string{"g"}})
	reg.Gauge("g").Set(42)
	smp.Sample(time.Now())
	out := RenderSeries(smp.Snapshot(), 0)
	if !strings.Contains(out, "g") || !strings.Contains(out, "last=42") {
		t.Fatalf("RenderSeries output:\n%s", out)
	}
}

func TestHealth(t *testing.T) {
	var nilH *Health
	if ok, res := nilH.Evaluate(); !ok || res != nil {
		t.Fatal("nil Health must evaluate healthy with no checks")
	}
	nilH.Register("x", func() Status { return Healthy("") }) // no panic

	h := NewHealth()
	ok, _ := h.Evaluate()
	if !ok {
		t.Fatal("empty Health must be healthy")
	}
	dead := 0
	h.Register("probe", func() Status {
		if dead > 0 {
			return Unhealthy("%d dead trackers", dead)
		}
		return Healthy("all trackers answering")
	})
	h.Register("saturation", func() Status { return Healthy("0/8 backlogged") })

	ok, results := h.Evaluate()
	if !ok || len(results) != 2 {
		t.Fatalf("ok=%v results=%d, want healthy with 2 checks", ok, len(results))
	}
	if results[0].Name != "probe" || results[1].Name != "saturation" {
		t.Fatalf("results out of registration order: %+v", results)
	}
	dead = 2
	ok, results = h.Evaluate()
	if ok {
		t.Fatal("one failing check must flip overall health")
	}
	out := RenderHealth(ok, results)
	if !strings.HasPrefix(out, "unhealthy\n") || !strings.Contains(out, "2 dead trackers") || !strings.Contains(out, "FAIL") {
		t.Fatalf("RenderHealth output:\n%s", out)
	}
	dead = 0
	ok, results = h.Evaluate()
	if !ok {
		t.Fatal("health must recover when the check clears")
	}
	if out := RenderHealth(ok, results); !strings.HasPrefix(out, "ok\n") {
		t.Fatalf("RenderHealth output:\n%s", out)
	}
}
