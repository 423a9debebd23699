package hadoop

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/stats"
	"github.com/ict-repro/mpid/internal/trace"
)

// MapTiming is one map task's measured phase breakdown, reported by the
// tasktracker that ran it on mapCompleted. Run is the record-processing
// loop (Map calls included); Spill is combining, partitioning, serializing
// and publishing the output to the shuffle server.
type MapTiming struct {
	Task    int
	Tracker int
	Run     time.Duration
	Spill   time.Duration
}

// Total is the task's measured wall time across both phases.
func (m MapTiming) Total() time.Duration { return m.Run + m.Spill }

// ReduceTiming is one reduce task's copy/sort/reduce phase breakdown —
// the live analogue of the per-reducer bars in the paper's Figure 1.
// Copy spans from the first mapLocations poll until every map output is
// fetched and merged; Sort is the final merge pass; Reduce is the user
// Reduce loop plus output serialization. Merge is the background
// merge-pass CPU time the shuffle overlapped with the copy phase — it
// runs inside Copy's wall time, so it is reported alongside the phases
// but not added to Total.
type ReduceTiming struct {
	Task    int
	Tracker int
	Copy    time.Duration
	Sort    time.Duration
	Reduce  time.Duration
	Merge   time.Duration
}

// Total is the task's measured wall time across the three phases. Merge
// time overlaps Copy and is deliberately excluded.
func (r ReduceTiming) Total() time.Duration { return r.Copy + r.Sort + r.Reduce }

// JobReport is the jobtracker's post-job observability bundle: the
// per-task phase timings shipped on the completion RPCs plus a snapshot
// of the job's metrics registry (RPC, shuffle, task-phase, scheduling and
// injected-fault counters and timers). RunWithReportContext returns one
// for every job that started, failed ones included, so a post-mortem can
// see how far the job got.
type JobReport struct {
	Maps    []MapTiming    // sorted by task id; last accepted execution of each
	Reduces []ReduceTiming // sorted by task id
	Metrics metrics.Snapshot
	// Spans is the job's aggregated trace, sorted by start time: the root
	// job span, a scheduler-side span per task attempt (re-executions
	// included, with attempt numbers and terminal status annotations), and
	// the task/phase/fetch/serve spans the tasktrackers drained into it. Spans
	// of attempts that died with their tracker appear with status "lost".
	Spans []trace.Span
}

// CopyShareOfReduce is the copy phase's share of total reducer time,
// Σcopy / Σ(copy+sort+reduce) × 100 — the quantity the paper's Figure 1
// makes visible per reducer. Zero when no reduce timings were recorded.
func (r *JobReport) CopyShareOfReduce() float64 {
	var copyT, total time.Duration
	for _, rt := range r.Reduces {
		copyT += rt.Copy
		total += rt.Total()
	}
	if total <= 0 {
		return 0
	}
	return 100 * float64(copyT) / float64(total)
}

// CopyShareOfTotal is the copy phase's share of all measured task time,
// Σcopy / (Σmap + Σreduce) × 100 — the live counterpart of the paper's
// Table I ("data movement takes up to 30% of the total execution time").
// Zero when nothing was recorded.
func (r *JobReport) CopyShareOfTotal() float64 {
	var copyT, total time.Duration
	for _, mt := range r.Maps {
		total += mt.Total()
	}
	for _, rt := range r.Reduces {
		copyT += rt.Copy
		total += rt.Total()
	}
	if total <= 0 {
		return 0
	}
	return 100 * float64(copyT) / float64(total)
}

// String renders the report: a per-map run/spill table, the
// Figure-1-style per-reducer copy/sort/reduce table with copy-share
// percentages, the two aggregate copy shares, and the metrics snapshot.
func (r *JobReport) String() string {
	var b strings.Builder
	if len(r.Maps) > 0 {
		t := stats.NewTable("map", "tracker", "run", "spill", "total")
		for _, m := range r.Maps {
			t.AddRow(
				fmt.Sprintf("m%d", m.Task),
				fmt.Sprintf("%d", m.Tracker),
				stats.FormatDuration(m.Run),
				stats.FormatDuration(m.Spill),
				stats.FormatDuration(m.Total()),
			)
		}
		b.WriteString("Map tasks\n")
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	if len(r.Reduces) > 0 {
		t := stats.NewTable("reduce", "tracker", "copy", "merge", "sort", "reduce", "total", "copy%")
		for _, rt := range r.Reduces {
			share := 0.0
			if rt.Total() > 0 {
				share = 100 * float64(rt.Copy) / float64(rt.Total())
			}
			t.AddRow(
				fmt.Sprintf("r%d", rt.Task),
				fmt.Sprintf("%d", rt.Tracker),
				stats.FormatDuration(rt.Copy),
				stats.FormatDuration(rt.Merge),
				stats.FormatDuration(rt.Sort),
				stats.FormatDuration(rt.Reduce),
				stats.FormatDuration(rt.Total()),
				fmt.Sprintf("%.1f", share),
			)
		}
		b.WriteString("Reduce tasks (Figure 1, live)\n")
		b.WriteString(t.String())
		fmt.Fprintf(&b, "copy share of reducer time: %.1f%%   copy share of all task time (Table I, live): %.1f%%\n\n",
			r.CopyShareOfReduce(), r.CopyShareOfTotal())
	}
	b.WriteString(r.Metrics.String())
	return b.String()
}

// Report snapshots the jobtracker's per-task timings and metrics. Safe to
// call at any time; mid-job it reflects the completions seen so far.
func (jt *jobTracker) Report() *JobReport {
	jt.mu.Lock()
	rep := &JobReport{
		Maps:    make([]MapTiming, 0, len(jt.mapTimings)),
		Reduces: make([]ReduceTiming, 0, len(jt.reduceTimings)),
	}
	for _, m := range jt.mapTimings {
		rep.Maps = append(rep.Maps, m)
	}
	for _, r := range jt.reduceTimings {
		rep.Reduces = append(rep.Reduces, r)
	}
	jt.mu.Unlock()
	sort.Slice(rep.Maps, func(i, j int) bool { return rep.Maps[i].Task < rep.Maps[j].Task })
	sort.Slice(rep.Reduces, func(i, j int) bool { return rep.Reduces[i].Task < rep.Reduces[j].Task })
	rep.Metrics = jt.cfg.Metrics.Snapshot()
	rep.Spans = jt.cfg.Tracer.Spans()
	return rep
}
