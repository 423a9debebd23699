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
)

// Concurrent jobs must not bleed observability into each other: each job's
// report sees only its own counters and spans, while the service-wide
// registry totals across them. The first two tests read the hadoop engine's
// JobReport (its scheduling counters and its span tree); the third watches
// the telemetry the service hands the MPI-D engine.

// TestConcurrentJobMetricsIsolation runs three jobs with different map
// counts at the same time (gated so all three overlap), then checks each
// report counted exactly its own maps and the service counter is exactly
// the sum.
func TestConcurrentJobMetricsIsolation(t *testing.T) {
	release := make(chan struct{})
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	s := New(Config{Slots: 3, Engine: "hadoop", Cluster: testCluster()})

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		select {
		case <-release:
		case <-stop:
		}
		return emit(line, kv.AppendVLong(nil, 1))
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		return emit(key, kv.AppendVLong(nil, int64(len(values))))
	})

	splitCounts := []int{2, 3, 5}
	var jobs []*Job
	for i, n := range splitCounts {
		// n one-line splits -> n map tasks (splits break on line ends).
		var text []byte
		for k := 0; k < n; k++ {
			text = append(text, byte('a'+i), '\n')
		}
		job := mapred.Job{
			Name:        fmt.Sprintf("iso%d", i),
			Mapper:      mapper,
			Reducer:     reducer,
			NumReducers: 1,
		}
		j, err := s.Submit(fmt.Sprintf("tenant%d", i), job.Name, job, mapred.SplitText(text, 1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// All three are admitted and running; un-gate them together.
	close(release)
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
	}

	var sum int64
	for i, j := range jobs {
		got := j.Report.Metrics.Counter("hadoop.map_launches")
		if got != int64(splitCounts[i]) {
			t.Fatalf("job %s counted %d map launches, want its own %d — counters bled across jobs",
				j.Name, got, splitCounts[i])
		}
		sum += got
	}
	if got := s.Telemetry().Metrics.Counter("hadoop.map_launches").Value(); got != sum {
		t.Fatalf("service-wide map_launches = %d, want sum of jobs %d", got, sum)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobTraceIsolation checks span sets of concurrent jobs are
// disjoint — no span (by id) appears in more than one job's report — and
// that the service collector received all of them after the jobs finished.
func TestConcurrentJobTraceIsolation(t *testing.T) {
	s := New(Config{Slots: 2, Engine: "hadoop", Cluster: testCluster()})
	job, splits, err := WordCount(map[string]int64{"bytes": 8 << 10, "split": 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(fmt.Sprintf("tenant%d", i), "wc", job, splits)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[uint64]int) // span id -> job index
	for i, j := range jobs {
		if len(j.Report.Spans) == 0 {
			t.Fatalf("job %d report has no spans", i)
		}
		roots := 0
		for _, sp := range j.Report.Spans {
			if owner, dup := seen[sp.ID]; dup {
				t.Fatalf("span %d (%s) appears in jobs %d and %d — spans bled across jobs",
					sp.ID, sp.Name, owner, i)
			}
			seen[sp.ID] = i
			if sp.Parent == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("job %d has %d root spans, want exactly its own 1", i, roots)
		}
	}
	// The jobs' spans were folded into the service-wide collector.
	if got := s.Telemetry().Tracer.Len(); got < len(seen) {
		t.Fatalf("service collector holds %d spans, want at least the %d from both jobs", got, len(seen))
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// telemetryTap is an engine that remembers the telemetry each job ran with.
type telemetryTap struct {
	engine.Engine
	mu   sync.Mutex
	seen map[string]engine.Telemetry // by job name
}

func (e *telemetryTap) Run(ctx context.Context, job mapred.Job, splits []mapred.Split, tel engine.Telemetry) (*mapred.Result, *hadoop.JobReport, error) {
	e.mu.Lock()
	e.seen[job.Name] = tel
	e.mu.Unlock()
	return e.Engine.Run(ctx, job, splits, tel)
}

// TestConcurrentJobMetricsIsolationMPID is the MPI-D counterpart: the engine
// returns no report, so the test taps the per-job telemetry the service
// passes in. Three overlapping jobs spill a different number of times (one
// record over the threshold per split, one final flush per mapper rank);
// each job's child registry must have timed exactly its own spills in
// mpid.spill, and the service registry exactly their sum.
func TestConcurrentJobMetricsIsolationMPID(t *testing.T) {
	release := make(chan struct{})
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	s := New(Config{Slots: 3, Cluster: testCluster()})
	tap := &telemetryTap{Engine: s.engine, seen: make(map[string]engine.Telemetry)}
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
	var sum int64
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		if j.Report != nil {
			t.Fatalf("%s: MPI-D job carries a report", j.Name)
		}
		spills := j.Result.MapCounters.Spills
		if spills < int64(j.Result.MapTasks) {
			t.Fatalf("%s: %d spills over %d one-record splits — the threshold never fired", j.Name, spills, j.Result.MapTasks)
		}
		tap.mu.Lock()
		tel := tap.seen[j.Name]
		tap.mu.Unlock()
		if got := tel.Metrics.Timer("mpid.spill").Stats().Count; got != spills {
			t.Fatalf("%s: its registry timed %d spills, the job made %d — timers bled across jobs", j.Name, got, spills)
		}
		sum += spills
	}
	if got := s.Telemetry().Metrics.Timer("mpid.spill").Stats().Count; got != sum {
		t.Fatalf("service-wide mpid.spill count = %d, want the jobs' sum %d", got, sum)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
