package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every operation on a nil tracer and the nil spans it
// yields must be a silent no-op — the contract that lets production call
// sites thread tracing unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Proc(); got != "" {
		t.Fatalf("nil Proc() = %q", got)
	}
	s := tr.StartRoot("x", KindTask)
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	s.Annotate("k", "v")
	c := s.Child("y", KindPhase)
	c.Annotate("k", "v")
	c.End()
	s.End()
	tr.Instant(Context{}, "f", KindFault)
	tr.Add(Span{Name: "z"})
	if tr.Drain() != nil || tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer retained spans")
	}
	if s.Context().Valid() {
		t.Fatal("nil span context is valid")
	}
}

// TestSpanLifecycle covers parenting, annotations, idempotent End and the
// collector's Drain/Add/Spans cycle.
func TestSpanLifecycle(t *testing.T) {
	tr := New("tracker0")
	root := tr.StartRoot("job", KindJob)
	if !root.Context().Valid() {
		t.Fatal("root context invalid")
	}
	child := root.Child("m0", KindTask)
	child.Annotate("attempt", "1")
	if got := tr.Len(); got != 0 {
		t.Fatalf("Len before End = %d", got)
	}
	child.End()
	child.End() // idempotent
	child.Annotate("late", "x")
	root.End()
	spans := tr.Drain()
	if len(spans) != 2 {
		t.Fatalf("drained %d spans, want 2", len(spans))
	}
	if tr.Len() != 0 {
		t.Fatal("Drain left spans behind")
	}
	var c, r Span
	for _, s := range spans {
		switch s.Name {
		case "m0":
			c = s
		case "job":
			r = s
		}
	}
	if c.Trace != r.Trace {
		t.Fatalf("child trace %d != root trace %d", c.Trace, r.Trace)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent %d != root id %d", c.Parent, r.ID)
	}
	if c.Note("attempt") != "1" {
		t.Fatalf("annotation lost: %v", c.Notes)
	}
	if c.Note("late") != "" {
		t.Fatal("annotation accepted after End")
	}
	if c.Proc != "tracker0" {
		t.Fatalf("proc = %q", c.Proc)
	}
	if c.Finish.Before(c.Start) {
		t.Fatal("finish before start")
	}

	agg := New("jobtracker")
	agg.Add(spans...)
	if agg.Len() != 2 {
		t.Fatalf("aggregate Len = %d", agg.Len())
	}
	sorted := agg.Spans()
	if len(sorted) != 2 || sorted[0].Start.After(sorted[1].Start) {
		t.Fatal("Spans not sorted by start")
	}
}

// TestConcurrentCollector hammers one tracer from many goroutines — span
// creation, annotation, draining and merging at once. Run under -race (the
// repo's `make race` gate), this is the collector's thread-safety proof.
func TestConcurrentCollector(t *testing.T) {
	tr := New("t")
	agg := New("agg")
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := tr.StartRoot(fmt.Sprintf("w%d.%d", w, i), KindTask)
				c := s.Child("phase", KindPhase)
				c.Annotate("i", fmt.Sprint(i))
				c.End()
				s.End()
				if i%17 == 0 {
					agg.Add(tr.Drain()...)
				}
			}
		}(w)
	}
	wg.Wait()
	agg.Add(tr.Drain()...)
	if got, want := agg.Len(), workers*perWorker*2; got != want {
		t.Fatalf("collected %d spans, want %d", got, want)
	}
}

// TestContextWire round-trips both propagation encodings and rejects
// garbage without ever failing the "no context" case.
func TestContextWire(t *testing.T) {
	c := Context{Trace: 0xdeadbeef, Span: 42}
	got, err := DecodeContext(EncodeContext(c))
	if err != nil || got != c {
		t.Fatalf("binary roundtrip: %v %v", got, err)
	}
	if EncodeContext(Context{}) != nil {
		t.Fatal("invalid context encoded to bytes")
	}
	if got, err := DecodeContext(nil); err != nil || got.Valid() {
		t.Fatalf("empty decode: %v %v", got, err)
	}
	if _, err := DecodeContext([]byte{0x90}); err == nil {
		t.Fatal("corrupt context accepted")
	}

	hdr := c.String()
	got, err = ParseContext(hdr)
	if err != nil || got != c {
		t.Fatalf("header roundtrip %q: %v %v", hdr, got, err)
	}
	if got, err := ParseContext(""); err != nil || got.Valid() {
		t.Fatalf("empty header: %v %v", got, err)
	}
	for _, bad := range []string{"zzz", "12", "-5", "12-zz"} {
		if _, err := ParseContext(bad); err == nil {
			t.Fatalf("bad header %q accepted", bad)
		}
	}
}

// TestChromeTrace exports a small two-proc trace and validates it with the
// same checker the trace-demo tooling uses, then spot-checks the JSON.
func TestChromeTrace(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	jt := New("jobtracker")
	jt.Record(Context{}, "job", KindJob, at(0), at(4))
	job := jt.Spans()[0]
	tt := New("tracker0")
	tt.Record(job.Context(), "m0", KindTask, at(1), at(3), Annotation{Key: "attempt", Value: "1"})
	m := tt.Spans()[0]
	tt.Record(m.Context(), "map.run", KindPhase, at(1), at(2))
	jt.Add(tt.Drain()...)
	spans := jt.Spans()

	data, err := ChromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChrome(data)
	if err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, data)
	}
	if st.Spans != len(spans) {
		t.Fatalf("validator saw %d spans, want %d", st.Spans, len(spans))
	}
	if st.Procs != 2 {
		t.Fatalf("validator saw %d procs, want 2", st.Procs)
	}

	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var procNames []string
	sawAttempt := false
	for _, e := range f.TraceEvents {
		if e["ph"] == "M" {
			procNames = append(procNames, e["args"].(map[string]any)["name"].(string))
		}
		if args, ok := e["args"].(map[string]any); ok && args["attempt"] == "1" {
			sawAttempt = true
		}
	}
	if fmt.Sprint(procNames) != "[jobtracker tracker0]" {
		t.Fatalf("process names = %v", procNames)
	}
	if !sawAttempt {
		t.Fatal("attempt annotation not exported to args")
	}
}

// TestValidateChromeRejects feeds the validator malformed inputs.
func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      "}{",
		"no events":     `{"traceEvents":[]}`,
		"bad phase":     `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":0,"tid":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		"non-monotonic": `{"traceEvents":[{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},{"name":"b","ph":"X","ts":2,"dur":1,"pid":0,"tid":0}]}`,
		"unmatched B":   `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]}`,
		"E without B":   `{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]}`,
	}
	for name, in := range cases {
		if _, err := ValidateChrome([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Matched B/E pairs are valid (external tools emit them).
	ok := `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0},{"name":"a","ph":"E","ts":4,"pid":0,"tid":0}]}`
	st, err := ValidateChrome([]byte(ok))
	if err != nil {
		t.Fatalf("matched B/E rejected: %v", err)
	}
	if st.Spans != 1 {
		t.Fatalf("B/E pair counted as %d spans", st.Spans)
	}
}

// TestRenderTimeline checks the Gantt rendering: every span appears, lanes
// are labelled, attempts are suffixed, and bars are width-bounded.
func TestRenderTimeline(t *testing.T) {
	tr := New("tracker0")
	tr.Record(Context{}, "m1", KindTask, time.Unix(0, 0), time.Unix(0, 0).Add(2*time.Millisecond),
		Annotation{Key: "attempt", Value: "2"})
	s := tr.Spans()[0]
	tr.Record(s.Context(), "fault.fail", KindFault, s.Finish, s.Finish)
	out := RenderTimeline(tr.Spans(), 40)
	for _, want := range []string{"m1 a2", "tracker0", "fault.fail", "#", "!"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 40+70 {
			t.Fatalf("line too wide (%d chars): %q", len(line), line)
		}
	}
	if got := RenderTimeline(nil, 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty timeline: %q", got)
	}
}
