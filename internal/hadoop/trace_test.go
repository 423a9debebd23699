package hadoop

import (
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// note returns the value of a span annotation, or "" when absent.
func note(s trace.Span, key string) string {
	for _, a := range s.Notes {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTracedJobSpans runs a clean job with tracing enabled and checks the aggregated trace is complete: a root
// job span, a scheduler attempt span and a tracker task span per task,
// the reduce phase spans, shuffle fetch/serve pairs, and a Chrome export
// that validates.
func TestTracedJobSpans(t *testing.T) {
	text := genText(t, 60_000, 7)
	splits := mapred.SplitText(text, 6_000)
	_, rep, err := runJob(wcJob(2), splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) == 0 {
		t.Fatal("report carries no spans")
	}

	var root *trace.Span
	byKind := map[string][]trace.Span{}
	for i, s := range rep.Spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
		if s.Kind == trace.KindJob {
			root = &rep.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no root job span")
	}
	if got := note(*root, "status"); got != "ok" {
		t.Errorf("job span status = %q, want ok", got)
	}
	if root.Finish.Before(root.Start) {
		t.Error("job span finishes before it starts")
	}

	// Every task the report timed must have a scheduler attempt span with
	// status ok and a tracker-shipped task span, parented into one trace.
	taskSpans := map[string]bool{}
	for _, s := range byKind[trace.KindTask] {
		taskSpans[s.Name] = true
		if s.Trace != root.Trace {
			t.Errorf("task span %s in trace %x, want %x", s.Name, s.Trace, root.Trace)
		}
	}
	okAttempts := map[string]bool{}
	for _, s := range byKind[trace.KindAttempt] {
		if note(s, "status") == "ok" {
			okAttempts[s.Name] = true
		}
	}
	for _, m := range rep.Maps {
		key := taskKey(taskKindMap, m.Task)
		if !taskSpans[key] {
			t.Errorf("no task span for completed map %s", key)
		}
		if !okAttempts[key] {
			t.Errorf("no ok attempt span for completed map %s", key)
		}
	}
	for _, r := range rep.Reduces {
		key := taskKey(taskKindReduce, r.Task)
		if !taskSpans[key] {
			t.Errorf("no task span for completed reduce %s", key)
		}
		if !okAttempts[key] {
			t.Errorf("no ok attempt span for completed reduce %s", key)
		}
	}

	// Reduce phases and the shuffle both sides: each reduce task ships
	// copy/sort/reduce phase spans; fetches appear on the reducer side and
	// serve spans on the jetty side, joined by propagated contexts.
	phases := map[string]int{}
	for _, s := range byKind[trace.KindPhase] {
		phases[s.Name]++
	}
	for _, name := range []string{"reduce.copy", "reduce.sort", "reduce.reduce", "map.run", "map.spill"} {
		if phases[name] == 0 {
			t.Errorf("no %s phase spans", name)
		}
	}
	if len(byKind[trace.KindFetch]) == 0 || len(byKind[trace.KindServe]) == 0 {
		t.Fatalf("shuffle spans missing: %d fetch, %d serve",
			len(byKind[trace.KindFetch]), len(byKind[trace.KindServe]))
	}
	fetchIDs := map[uint64]bool{}
	for _, s := range byKind[trace.KindFetch] {
		fetchIDs[s.ID] = true
	}
	linked := 0
	for _, s := range byKind[trace.KindServe] {
		if fetchIDs[s.Parent] {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no serve span is parented under a fetch span — shuffle trace context not propagated")
	}

	data, err := rep.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.ValidateChrome(data)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if st.Spans != len(rep.Spans) {
		t.Errorf("chrome export has %d spans, report has %d", st.Spans, len(rep.Spans))
	}
	if tl := rep.Timeline(100); !strings.Contains(tl, "m0") || !strings.Contains(tl, "job") {
		t.Errorf("timeline missing expected rows:\n%s", tl)
	}
}

// TestChaosTrackerCrashTrace crashes a tracker mid-job and checks the
// trace tells the recovery story: the killed attempt appears with status
// "lost" even though its tracker never shipped spans, the re-execution
// appears with a higher attempt number and status "ok", injected faults
// show up as fault spans, and the Chrome export stays well-formed. The
// flight recorder tells it too: the sweep's loss verdict leaves an
// attempt.lost event per killed attempt, each followed by an
// attempt.scheduled event re-executing its task, and every one of those
// events names the trace span of its attempt.
func TestChaosTrackerCrashTrace(t *testing.T) {
	text := genText(t, 120_000, 11)
	splits := mapred.SplitText(text, 3_000)
	slowMapper := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		time.Sleep(3 * time.Millisecond)
		return wcMapper.Map(k, v, emit)
	})
	job := wcJob(3)
	job.Mapper = slowMapper

	inj := faults.New(1, faults.Rule{
		Component: "hadoop.tracker1",
		Operation: "heartbeat",
		After:     10,
		Action:    faults.Crash,
	})
	rec := obs.NewRecorder(0)
	res, rep, err := runJob(job, splits, Config{
		NumTrackers:    3,
		Injector:       inj,
		TrackerTimeout: 200 * time.Millisecond,
		RPC: hadooprpc.Options{
			MaxAttempts: 3,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		},
		Telemetry: obs.Telemetry{Events: rec},
	})
	if err != nil {
		t.Fatalf("job with tracker crash: %v", err)
	}
	if res.MaxTaskExecutions < 2 {
		t.Fatalf("MaxTaskExecutions = %d, want >= 2", res.MaxTaskExecutions)
	}

	// The recorded chain: every attempt lost to the crash is followed,
	// strictly later in Seq order, by its task scheduled again with a
	// higher attempt number; each event names its attempt's span, and a
	// lost attempt's span ended "lost".
	spanByID := make(map[uint64]trace.Span, len(rep.Spans))
	for _, s := range rep.Spans {
		spanByID[s.ID] = s
	}
	lost := rec.OfType(obs.EvAttemptLost)
	if len(lost) == 0 {
		t.Fatalf("no attempt.lost events after the crash\n%s", obs.RenderEvents(rec.Events()))
	}
	scheduled := rec.OfType(obs.EvAttemptScheduled)
	for _, l := range lost {
		if sp, ok := spanByID[l.Span]; !ok || note(sp, "status") != "lost" {
			t.Errorf("attempt.lost %s/%d names span %d, found %v with status %q", l.Task, l.Attempt, l.Span, ok, note(sp, "status"))
		}
		var redo *obs.Event
		for i, e := range scheduled {
			if e.Task == l.Task && e.Attempt > l.Attempt && e.Seq > l.Seq {
				redo = &scheduled[i]
				break
			}
		}
		if redo == nil {
			t.Errorf("attempt.lost %s/%d (seq %d) is never followed by a re-execution\n%s",
				l.Task, l.Attempt, l.Seq, obs.RenderEvents(rec.Events()))
			continue
		}
		if _, ok := spanByID[redo.Span]; redo.Span == 0 || !ok {
			t.Errorf("re-execution %s/%d names span %d, not among the report's %d spans", redo.Task, redo.Attempt, redo.Span, len(rep.Spans))
		}
	}

	// Scheduler attempt spans by task name: the crash must leave at least
	// one "lost" attempt, and each lost task must also carry a later
	// attempt with a higher attempt number that ended "ok".
	attempts := map[string][]trace.Span{}
	var faultSpans int
	for _, s := range rep.Spans {
		switch s.Kind {
		case trace.KindAttempt:
			attempts[s.Name] = append(attempts[s.Name], s)
		case trace.KindFault:
			faultSpans++
		}
	}
	lostTasks := 0
	for name, spans := range attempts {
		for _, s := range spans {
			if note(s, "status") != "lost" {
				continue
			}
			lostTasks++
			lostAttempt := note(s, "attempt")
			redone := false
			for _, other := range spans {
				if note(other, "status") == "ok" && note(other, "attempt") > lostAttempt {
					redone = true
				}
			}
			if !redone {
				t.Errorf("task %s: lost attempt %s has no later ok attempt in the trace", name, lostAttempt)
			}
		}
	}
	if lostTasks == 0 {
		t.Error("no attempt span with status lost — killed attempts invisible in the trace")
	}
	if faultSpans == 0 {
		t.Error("no fault spans — injector tracer not wired")
	}

	// Completed-attempt coverage: every task the report timed has a task
	// span shipped by the tracker that ran its accepted execution.
	taskSpans := map[string]bool{}
	for _, s := range rep.Spans {
		if s.Kind == trace.KindTask {
			taskSpans[s.Name] = true
		}
	}
	for _, m := range rep.Maps {
		if key := taskKey(taskKindMap, m.Task); !taskSpans[key] {
			t.Errorf("no task span for completed map %s", key)
		}
	}
	for _, r := range rep.Reduces {
		if key := taskKey(taskKindReduce, r.Task); !taskSpans[key] {
			t.Errorf("no task span for completed reduce %s", key)
		}
	}

	data, err := rep.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("chaos trace export does not validate: %v", err)
	}
}
