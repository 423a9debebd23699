package serve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
)

// Tests of what the engine contract promises the service beyond "runs the
// job": the served output equals the baseline engine's byte for byte, a
// straggler that ignores its context still stops, a panicking job takes
// nothing else down, and a finished job's record is bounded and holds none
// of its input.

// TestCrossEngineDigestsOverRPC submits registered workloads, by name and
// parameters as a remote client would, to the service, and runs the same
// workloads directly on the mini-Hadoop engine, the reference
// implementation: the digest that comes back over the wire must equal
// OutputDigest of the baseline's output.
func TestCrossEngineDigestsOverRPC(t *testing.T) {
	s := New(Config{Cluster: testCluster()})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	wl := NewWorkloads()
	c := serveRPC(t, s, wl)
	baseline := engine.Hadoop{Config: testCluster()}
	workloads := map[string]map[string]int64{
		"wordcount": {"bytes": 32 << 10, "split": 4 << 10, "reducers": 3},
		"terasort":  {"records": 2000, "splits": 5, "reducers": 3},
		"invindex":  {"docs": 20, "lines": 12, "split": 2 << 10, "reducers": 2},
		"grep":      {"bytes": 32 << 10, "split": 4 << 10},
	}
	for name, params := range workloads {
		t.Run(name, func(t *testing.T) {
			id, err := c.Submit("alice", name, params)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			res, err := c.Wait(id)
			if err != nil || !res.OK {
				t.Fatalf("wait = %+v, %v", res, err)
			}
			job, splits, err := wl.Build(name, params)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := baseline.Run(context.Background(), job, splits, obs.Telemetry{})
			if err != nil {
				t.Fatalf("hadoop: %v", err)
			}
			want := OutputDigest(ref)
			if !bytes.Equal(res.Digest, want) {
				t.Fatalf("served digest %x, hadoop's %x", res.Digest, want)
			}
			if bytes.Equal(want, OutputDigest(nil)) {
				t.Fatal("hadoop returned the digest of no output")
			}
		})
	}
}

// TestDrainCancelsJobThatIgnoresItsContext is the honest version of
// TestDrainTimeoutCancelsStragglers, whose mapper returns ctx.Err() on its
// own and so passes on an engine with no cancellation at all. This mapper
// knows nothing of the context: it grinds through 20000 one-record splits
// at a millisecond each — ten seconds of map phase on two mappers. A drain
// with a 50 ms budget must stop it through the engine alone.
func TestDrainCancelsJobThatIgnoresItsContext(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		const nSplits = 20000
		s := New(Config{Cluster: testCluster()})
		var mapped atomic.Int64
		job := mapred.Job{
			Name: "grinder", NumReducers: 1,
			Mapper: mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
				mapped.Add(1)
				time.Sleep(time.Millisecond) // the map work
				return emit(line, nil)
			}),
			Reducer: mapred.ReducerFunc(func(key []byte, _ [][]byte, emit mapred.Emit) error { return emit(key, nil) }),
		}
		j, err := s.Submit("alice", job.Name, job, mapred.SplitText([]byte(strings.Repeat("x\n", nSplits)), 1))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := s.Drain(50 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "canceled 1 jobs") {
			t.Fatalf("drain = %v, want a report of the one canceled job", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("drain took %v: the job ran on, it was not canceled", took)
		}
		<-j.Done()
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job error = %v, want context.Canceled", j.Err)
		}
		if n := mapped.Load(); n == 0 || n > nSplits/2 {
			t.Fatalf("%d of %d splits mapped: want the job caught mid map phase", n, nSplits)
		}
	})
}

// TestMapperPanicFailsJobOnly: a user mapper or reducer that panics fails
// its own job with the panic in the error, and the service goes on admitting
// and running jobs: mpi.RunOn recovers a rank's panic.
func TestMapperPanicFailsJobOnly(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		job, splits := smallWC(t)
		badMapper, badReducer := job, job
		badMapper.Mapper = mapred.MapperFunc(func(_, _ []byte, _ mapred.Emit) error { panic("user mapper exploded") })
		badReducer.Reducer = mapred.ReducerFunc(func(_ []byte, _ [][]byte, _ mapred.Emit) error { panic("user reducer exploded") })
		for want, bad := range map[string]mapred.Job{"user mapper exploded": badMapper, "user reducer exploded": badReducer} {
			j, err := s.Submit("alice", "bad", bad, splits)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if j.Err == nil || !strings.Contains(j.Err.Error(), want) {
				t.Fatalf("job error = %v, want the panic %q", j.Err, want)
			}
		}
		j, err := s.Submit("alice", "wc", job, splits)
		if err != nil {
			t.Fatalf("submit after the panicked jobs: %v", err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job after the panicked jobs: %v", err)
		}
		if st := s.Stats(); st.Done != 1 || st.Failed != 2 || st.Running != 0 {
			t.Fatalf("stats = %+v, want done=1 failed=2 running=0", st)
		}
	})
}

// pinnedSplit is a split the test can watch being garbage collected.
type pinnedSplit struct{ mapred.Split }

// TestFinishedJobReleasesInput: the record the service retains for a
// finished job must not keep the job's splits alive — at 512 KiB of input a
// job, that was the service's whole memory footprint.
func TestFinishedJobReleasesInput(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		freed := make(chan struct{})
		j := func() *Job { // its own frame, so no local outlives the submission
			job, splits := smallWC(t)
			pin := &pinnedSplit{splits[0]}
			runtime.SetFinalizer(pin, func(*pinnedSplit) { close(freed) })
			splits[0] = pin
			j, err := s.Submit("alice", "wc", job, splits)
			if err != nil {
				t.Fatal(err)
			}
			return j
		}()
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if kept, err := s.Lookup(j.ID); err != nil || kept != j || j.Result == nil {
			t.Fatalf("finished job not retained: %v, %v", kept, err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			runtime.GC()
			select {
			case <-freed:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatal("the retained record of a finished job still pins its splits")
			}
		}
	})
}

// TestRetentionBoundedByBytes runs a few thousand small jobs through a
// service whose retention budget holds a few dozen of their records: what
// is retained stays within the budget, the newest record is always there,
// an evicted id answers ErrExpired — in process and over the wire — and an
// id never issued ErrUnknownJob.
func TestRetentionBoundedByBytes(t *testing.T) {
	const nJobs, budget = 2000, 32 << 10
	s := New(Config{Slots: 4, QueueDepth: 16, Cluster: testCluster()})
	s.budget = budget
	defer s.Drain(5 * time.Second)
	c := serveRPC(t, s, NewWorkloads())

	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		return emit(key, kv.AppendVLong(nil, int64(len(values))))
	})
	job := mapred.Job{Name: "tiny", Reducer: reducer, NumReducers: 1,
		Mapper: mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error { return emit(line, nil) })}
	splits := mapred.SplitText([]byte("a\nb\nc\n"), 2)

	var last *Job
	for i := 0; i < nJobs; i++ {
		j, err := s.Submit("alice", job.Name, job, splits)
		var sat *SaturatedError
		if errors.As(err, &sat) { // back off the way a client would: wait for the newest
			if err := last.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			i--
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	retained, records, finished := s.retained, len(s.jobs), len(s.order)
	s.mu.Unlock()
	if retained > budget || retained <= 0 {
		t.Fatalf("retained %d bytes, budget %d", retained, budget)
	}
	// No record is charged less than recordBytes' flat 512, so the budget
	// bounds the count too.
	if records != finished || records > budget/512 || records < 2 {
		t.Fatalf("%d records (%d finished) retained under a %d-byte budget", records, finished, budget)
	}
	if j, err := s.Lookup(last.ID); err != nil || j != last {
		t.Fatalf("newest job %d: Lookup = %v, %v", last.ID, j, err)
	}
	if _, err := s.Lookup(1); !errors.Is(err, ErrExpired) || errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Lookup(evicted) = %v, want ErrExpired", err)
	}
	if _, err := c.Wait(1); !errors.Is(err, ErrExpired) {
		t.Fatalf("remote wait on an evicted job = %v, want ErrExpired", err)
	}
	for _, id := range []int64{0, -3, last.ID + 1} {
		if _, err := s.Lookup(id); !errors.Is(err, ErrUnknownJob) || errors.Is(err, ErrExpired) {
			t.Fatalf("Lookup(%d) = %v, want ErrUnknownJob", id, err)
		}
	}
	if _, err := c.Wait(last.ID + 1); err == nil || errors.Is(err, ErrExpired) || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("remote wait on a never-issued id = %v, want an unknown-job error", err)
	}
	if res, err := c.Wait(last.ID); err != nil || !res.OK || !bytes.Equal(res.Digest, OutputDigest(last.Result)) {
		t.Fatalf("remote wait on the newest job = %+v, %v", res, err)
	}
}
