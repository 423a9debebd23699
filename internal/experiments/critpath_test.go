package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/trace"
)

// TestTraceCriticalPathMatchesTimers cross-checks the two independent
// instrumentation paths the live engine now carries: the phase *timers*
// tasktrackers ship on completion RPCs (PR 2's Figure 1 / Table I live
// numbers) and the *spans* the tracing layer ships on the same RPCs. Both
// measure the same intervals, so the copy-stage share of total task time
// computed from reduce.copy spans must agree with the report's
// CopyShareOfTotal — if the trace disagreed with the timers, one of them
// would be lying about the critical path.
func TestTraceCriticalPathMatchesTimers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live timing assertion; skipped in -short and race builds")
	}
	r, err := Figure1LiveAt(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	var copySpans, taskSpans time.Duration
	for _, s := range r.Report.Spans {
		d := s.Finish.Sub(s.Start)
		switch {
		case s.Kind == trace.KindPhase && s.Name == "reduce.copy":
			copySpans += d
		case s.Kind == trace.KindTask:
			taskSpans += d
		}
	}
	if copySpans <= 0 || taskSpans <= 0 {
		t.Fatalf("degenerate span sums: copy %v, tasks %v", copySpans, taskSpans)
	}
	traceShare := 100 * float64(copySpans) / float64(taskSpans)
	timerShare := r.Report.CopyShareOfTotal()
	t.Logf("copy share of total task time: %.1f%% from spans, %.1f%% from phase timers", traceShare, timerShare)

	// Task spans wrap their phase spans plus per-task overhead (RPC
	// serialization, scheduling hand-off), so the span-derived share reads
	// slightly lower; more than 10 percentage points apart means one
	// instrumentation path is broken.
	if math.Abs(traceShare-timerShare) > 10 {
		t.Errorf("span-derived copy share %.1f%% disagrees with timer-derived %.1f%%", traceShare, timerShare)
	}
}
