package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// Concurrent jobs must not bleed observability into each other: each job's
// telemetry sees only its own timers and spans, while the service-wide
// registry and collector total across them.

// tapped is what one job ran with: its telemetry, and the spans its tracer
// held when the engine returned, before the service drained them.
type tapped struct {
	tel   obs.Telemetry
	spans []trace.Span
}

// telemetryTap is an engine that remembers the telemetry each job ran with.
type telemetryTap struct {
	engine.Engine
	mu   sync.Mutex
	seen map[string]tapped // by job name
}

func (e *telemetryTap) Run(ctx context.Context, job mapred.Job, splits []mapred.Split, tel obs.Telemetry) (*mapred.Result, *hadoop.JobReport, error) {
	res, rep, err := e.Engine.Run(ctx, job, splits, tel)
	e.mu.Lock()
	e.seen[job.Name] = tapped{tel: tel, spans: tel.Tracer.Spans()}
	e.mu.Unlock()
	return res, rep, err
}

// spillSpans counts the mpid.spill spans among spans.
func spillSpans(spans []trace.Span) int64 {
	var n int64
	for _, sp := range spans {
		if sp.Name == "mpid.spill" {
			n++
		}
	}
	return n
}

// overlappingSpillJobs runs three jobs at once on a tapped service. Each
// spills a different number of times (one record over the threshold per
// split, one final flush per mapper rank). It returns the finished jobs
// with their spill counts; the caller drains the service.
func overlappingSpillJobs(t *testing.T) (*Service, *telemetryTap, []*Job, []int64) {
	release := make(chan struct{})
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	s := New(Config{Slots: 3, Cluster: testCluster()})
	tap := &telemetryTap{Engine: s.engine, seen: make(map[string]tapped)}
	s.engine = tap

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		select {
		case <-release:
		case <-stop:
		}
		return emit(line, make([]byte, 256))
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		return emit(key, kv.AppendVLong(nil, int64(len(values))))
	})

	var jobs []*Job
	for i, n := range []int{2, 3, 5} {
		var text []byte
		for k := 0; k < n; k++ {
			text = append(text, byte('a'+i), '\n')
		}
		job := mapred.Job{
			Name: fmt.Sprintf("iso%d", i), Mapper: mapper, Reducer: reducer,
			NumReducers: 1, SpillThreshold: 128,
		}
		j, err := s.Submit(fmt.Sprintf("tenant%d", i), job.Name, job, mapred.SplitText(text, 1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	var spills []int64
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		if j.Report != nil {
			t.Fatalf("%s: MPI-D job carries a report", j.Name)
		}
		n := j.Result.MapCounters.Spills
		if n < int64(j.Result.MapTasks) {
			t.Fatalf("%s: %d spills over %d one-record splits — the threshold never fired", j.Name, n, j.Result.MapTasks)
		}
		spills = append(spills, n)
	}
	return s, tap, jobs, spills
}

// TestConcurrentJobMetricsIsolationMPID: the engine returns no report, so
// the test taps the per-job telemetry the service passes in. Each of three
// overlapping jobs' child registry must have timed exactly its own spills
// in mpid.spill, and the service registry exactly their sum.
func TestConcurrentJobMetricsIsolationMPID(t *testing.T) {
	s, tap, jobs, spills := overlappingSpillJobs(t)
	var sum int64
	for i, j := range jobs {
		tap.mu.Lock()
		seen := tap.seen[j.Name]
		tap.mu.Unlock()
		if got := seen.tel.Metrics.Timer("mpid.spill").Stats().Count; got != spills[i] {
			t.Fatalf("%s: its registry timed %d spills, the job made %d — timers bled across jobs", j.Name, got, spills[i])
		}
		sum += spills[i]
	}
	if got := s.Telemetry().Metrics.Timer("mpid.spill").Stats().Count; got != sum {
		t.Fatalf("service-wide mpid.spill count = %d, want the jobs' sum %d", got, sum)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobTraceIsolation checks the span sets of three
// overlapping MPI-D jobs: each job's tracer holds exactly one mpid.spill
// span per spill it made, no span (by id) appears in two jobs' tracers,
// and the service collector holds the jobs' sum of spill spans.
func TestConcurrentJobTraceIsolation(t *testing.T) {
	s, tap, jobs, spills := overlappingSpillJobs(t)
	owner := make(map[uint64]string) // span id -> job name
	var sum int64
	for i, j := range jobs {
		tap.mu.Lock()
		seen := tap.seen[j.Name]
		tap.mu.Unlock()
		if got := spillSpans(seen.spans); got != spills[i] {
			t.Fatalf("%s: its tracer holds %d mpid.spill spans, the job made %d spills — spans bled across jobs", j.Name, got, spills[i])
		}
		for _, sp := range seen.spans {
			if prev, dup := owner[sp.ID]; dup {
				t.Fatalf("span %d (%s) appears in jobs %s and %s — spans bled across jobs", sp.ID, sp.Name, prev, j.Name)
			}
			owner[sp.ID] = j.Name
		}
		sum += spills[i]
	}
	if got := spillSpans(s.Telemetry().Tracer.Spans()); got != sum {
		t.Fatalf("service collector holds %d mpid.spill spans, want the jobs' sum %d", got, sum)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
