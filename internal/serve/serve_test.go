package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

// testCluster sizes every serve test's jobs: two mapper ranks.
func testCluster() hadoop.Config {
	return hadoop.Config{NumTrackers: 2}
}

// onEngine runs a test of the service contract as a subtest named for the
// engine behind the service, "mpid", so each test's results keep the name
// they carried when the service could also run hadoop.
func onEngine(t *testing.T, test func(t *testing.T)) {
	t.Run("mpid", test)
}

// serveRPC puts the service behind its RPC front-end and returns a
// connected client; both are torn down with the test.
func serveRPC(t testing.TB, s *Service, workloads *Workloads) *Client {
	t.Helper()
	srv := hadooprpc.NewServer()
	srv.Register(NewProtocol(s, workloads))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialService(addr, hadooprpc.Options{CallTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// smallWC is a quick deterministic WordCount job.
func smallWC(t *testing.T) (mapred.Job, []mapred.Split) {
	t.Helper()
	job, splits, err := workload.WordCount(map[string]int64{"bytes": 8 << 10, "split": 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return job, splits
}

// gatedJob is a single-split job whose only map task blocks until release
// is closed — the tool for filling slots and queues deterministically. The
// mapper also watches stop (closed by t.Cleanup) so an engine abort can
// always finish the task goroutine.
func gatedJob(name string, release, stop <-chan struct{}) (mapred.Job, []mapred.Split) {
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
	job := mapred.Job{Name: name, Mapper: mapper, Reducer: reducer, NumReducers: 1}
	return job, mapred.SplitText([]byte(name), len(name))
}

func TestSubmitRunsJob(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		job, splits := smallWC(t)
		j, err := s.Submit("alice", "wc", job, splits)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatalf("job failed: %v", err)
		}
		if j.Result == nil || len(j.Result.Pairs()) == 0 {
			t.Fatal("finished job has no output")
		}
		// The report is a jobtracker's; MPI-D has none to give.
		if j.Report != nil {
			t.Fatal("MPI-D job carries a report")
		}
		if j.Latency() <= 0 {
			t.Fatalf("latency = %v, want > 0", j.Latency())
		}
		st := s.Stats()
		if st.Done != 1 || st.Failed != 0 {
			t.Fatalf("stats = %+v, want done=1 failed=0", st)
		}
		if ok, report := s.Health(); !ok || !strings.HasPrefix(report, "ok\n") {
			t.Fatalf("idle service unhealthy:\n%s", report)
		}
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubmitDefaultsTenant(t *testing.T) {
	s := New(Config{Cluster: testCluster()})
	defer s.Drain(5 * time.Second)
	job, splits := smallWC(t)
	j, err := s.Submit("", "wc", job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if j.Tenant != "default" {
		t.Fatalf("tenant = %q, want default", j.Tenant)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionControlSaturates fills every slot and queue position with
// gated jobs, then checks the next submission is rejected with the typed
// error carrying the queue depth and a positive retry hint — and that the
// slot freed by a finished job admits again.
func TestAdmissionControlSaturates(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		release := make(chan struct{})
		stop := make(chan struct{})
		t.Cleanup(func() { close(stop) })
		s := New(Config{Slots: 1, QueueDepth: 2, Cluster: testCluster()})

		var jobs []*Job
		for i := 0; i < 3; i++ { // 1 running + 2 queued
			job, splits := gatedJob("gate", release, stop)
			j, err := s.Submit("alice", "gate", job, splits)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			jobs = append(jobs, j)
		}

		_, err := s.Submit("alice", "gate", mapred.Job{}, nil)
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("err = %v, want ErrSaturated", err)
		}
		var sat *SaturatedError
		if !errors.As(err, &sat) {
			t.Fatalf("err = %v (%T), want *SaturatedError", err, err)
		}
		// Queued counts the whole backlog (1 running + 2 waiting) against the
		// configured capacity (slots + queue).
		if sat.Queued != 3 || sat.Depth != 3 {
			t.Fatalf("SaturatedError = %+v, want queued=3 depth=3", sat)
		}
		if sat.RetryAfter <= 0 {
			t.Fatalf("RetryAfter = %v, want > 0", sat.RetryAfter)
		}
		if st := s.Stats(); st.Rejected != 1 {
			t.Fatalf("rejected = %d, want 1", st.Rejected)
		}

		close(release)
		for _, j := range jobs {
			if err := j.Wait(context.Background()); err != nil {
				t.Fatalf("gated job: %v", err)
			}
		}
		// Capacity is back: the same submission is admitted now.
		job, splits := smallWC(t)
		j, err := s.Submit("alice", "wc", job, splits)
		if err != nil {
			t.Fatalf("submit after drain of queue: %v", err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSchedulingFairAcrossTenantsFIFOWithin saturates a one-slot service
// with a backlog from tenant a, then one job from tenant b. Round-robin
// must run b's job before a's backlog drains, while a's own jobs stay in
// submission order.
func TestSchedulingFairAcrossTenantsFIFOWithin(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		release := make(chan struct{})
		stop := make(chan struct{})
		t.Cleanup(func() { close(stop) })
		s := New(Config{Slots: 1, QueueDepth: 16, Cluster: testCluster()})

		var mu sync.Mutex
		var order []string
		logged := func(name string) (mapred.Job, []mapred.Split) {
			job, splits := gatedJob(name, release, stop)
			inner := job.Mapper
			job.Mapper = mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return inner.Map(k, v, emit)
			})
			return job, splits
		}

		var jobs []*Job
		submit := func(tenant, name string) {
			job, splits := logged(name)
			j, err := s.Submit(tenant, name, job, splits)
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
			jobs = append(jobs, j)
		}
		submit("a", "a1") // occupies the slot
		submit("a", "a2")
		submit("a", "a3")
		submit("b", "b1")

		close(release)
		for _, j := range jobs {
			if err := j.Wait(context.Background()); err != nil {
				t.Fatalf("%s: %v", j.Name, err)
			}
		}

		mu.Lock()
		got := strings.Join(order, " ")
		mu.Unlock()
		pos := func(name string) int { return strings.Index(got, name) }
		if pos("a1") < 0 || pos("a2") < 0 || pos("a3") < 0 || pos("b1") < 0 {
			t.Fatalf("missing executions in %q", got)
		}
		// FIFO within tenant a.
		if !(pos("a1") < pos("a2") && pos("a2") < pos("a3")) {
			t.Fatalf("tenant a out of FIFO order: %q", got)
		}
		// Fairness: b1 arrived last but must not wait out a's whole backlog.
		if pos("b1") > pos("a3") {
			t.Fatalf("tenant b starved behind tenant a's backlog: %q", got)
		}
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDrainGraceful(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		job, splits := smallWC(t)
		var jobs []*Job
		for i := 0; i < 3; i++ {
			j, err := s.Submit("alice", "wc", job, splits)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		if err := s.Drain(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		for _, j := range jobs {
			if err := j.Wait(context.Background()); err != nil {
				t.Fatalf("job not finished before drain returned: %v", err)
			}
		}
		// A drained service admits nothing.
		if _, err := s.Submit("alice", "wc", job, splits); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit after drain = %v, want ErrDraining", err)
		}
		// Draining again is an immediate no-op.
		if err := s.Drain(time.Second); err != nil {
			t.Fatalf("second drain: %v", err)
		}
	})
}

// TestDrainTimeoutCancelsStragglers submits a job that only finishes when
// its own context is canceled, then drains with a short budget: the drain
// must cancel the job, report it, and still return (the engine threads the
// cancellation down, so the straggler actually stops).
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})

		// The job's context exists only once Submit returns: the mapper waits
		// for submitted, closed once jctx is set, then for the cancellation.
		var jctx context.Context
		submitted := make(chan struct{})
		mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
			<-submitted
			<-jctx.Done()
			return jctx.Err()
		})
		reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
			return emit(key, nil)
		})
		job := mapred.Job{Name: "straggler", Mapper: mapper, Reducer: reducer, NumReducers: 1}
		j, err := s.Submit("alice", "straggler", job, mapred.SplitText([]byte("x"), 1))
		if err != nil {
			t.Fatal(err)
		}
		jctx = j.ctx
		close(submitted)

		err = s.Drain(100 * time.Millisecond)
		if err == nil {
			t.Fatal("drain of a stuck job returned nil, want cancellation report")
		}
		if !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("drain error = %v, want it to name canceled jobs", err)
		}
		<-j.Done()
		if j.Err == nil {
			t.Fatal("canceled job has nil error")
		}
		if st := s.Stats(); st.Failed != 1 {
			t.Fatalf("failed = %d, want 1", st.Failed)
		}
	})
}

func TestOutputDigestDeterministicAndSensitive(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		run := func(seed int64) []byte {
			job, splits, err := workload.WordCount(map[string]int64{"bytes": 8 << 10, "seed": seed})
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit("alice", "wc", job, splits)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			return OutputDigest(j.Result)
		}
		a1, a2, b := run(1), run(1), run(2)
		if !bytes.Equal(a1, a2) {
			t.Fatal("same seed produced different digests")
		}
		if bytes.Equal(a1, b) {
			t.Fatal("different seeds produced equal digests")
		}
		if OutputDigest(nil) == nil {
			t.Fatal("nil result digest should still be a hash")
		}
	})
}

func TestLookupUnknownJob(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(time.Second)
		if _, err := s.Lookup(99); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("err = %v, want ErrUnknownJob", err)
		}
	})
}

// TestRPCRoundTrip runs the full wire path: daemon-side protocol, remote
// submit/wait/stats, the digest crossing the wire intact, and unknown
// workloads failing cleanly.
func TestRPCRoundTrip(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		c := serveRPC(t, s, NewWorkloads())

		params := map[string]int64{"bytes": 8 << 10, "split": 2 << 10}
		id, err := c.Submit("alice", "wordcount", params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Duration <= 0 || len(res.Digest) == 0 {
			t.Fatalf("remote result = %+v, want ok with latency and digest", res)
		}
		// The wire digest equals a local run of the same deterministic job.
		j, err := s.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Digest, OutputDigest(j.Result)) || !bytes.Equal(res.Digest, j.digest) {
			t.Fatal("digest over the wire differs from the local digest")
		}

		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Done != 1 {
			t.Fatalf("remote stats done = %d, want 1", st.Done)
		}
		if _, err := c.Submit("alice", "no-such-workload", nil); err == nil ||
			!strings.Contains(err.Error(), "unknown workload") {
			t.Fatalf("unknown workload err = %v", err)
		}
	})
}

// TestRPCSaturationRoundTrip checks a saturated admission crosses the wire
// as a reconstructable typed error with the retry hint intact.
func TestRPCSaturationRoundTrip(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		release := make(chan struct{})
		stop := make(chan struct{})
		t.Cleanup(func() { close(stop) })
		s := New(Config{Slots: 1, QueueDepth: 1, Cluster: testCluster()})
		workloads := NewWorkloads()
		workloads.Register("gate", func(map[string]int64) (mapred.Job, []mapred.Split, error) {
			job, splits := gatedJob("gate", release, stop)
			return job, splits, nil
		})
		c := serveRPC(t, s, workloads)

		ids := make([]int64, 0, 2)
		for i := 0; i < 2; i++ { // fill the slot and the queue
			id, err := c.Submit("alice", "gate", nil)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			ids = append(ids, id)
		}
		_, err := c.Submit("alice", "gate", nil)
		var sat *SaturatedError
		if !errors.As(err, &sat) {
			t.Fatalf("remote saturated err = %v (%T), want *SaturatedError", err, err)
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("errors.Is(err, ErrSaturated) = false for %v", err)
		}
		if sat.Queued != 2 || sat.Depth != 2 || sat.RetryAfter <= 0 {
			t.Fatalf("decoded SaturatedError = %+v", sat)
		}

		close(release)
		for _, id := range ids {
			if res, err := c.Wait(id); err != nil || !res.OK {
				t.Fatalf("wait %d = %+v, %v", id, res, err)
			}
		}
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSaturatedEncodeDecode(t *testing.T) {
	in := &SaturatedError{Queued: 12, Depth: 64, RetryAfter: 150 * time.Millisecond}
	out, ok := decodeSaturated("hadooprpc: remote error: " + encodeSaturated(in))
	if !ok {
		t.Fatal("decode failed")
	}
	if out.Queued != 12 || out.Depth != 64 || out.RetryAfter != 150*time.Millisecond {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if _, ok := decodeSaturated("some other failure"); ok {
		t.Fatal("decoded a saturation out of an unrelated error")
	}
}

func TestJobsListing(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		job, splits := smallWC(t)
		j, err := s.Submit("alice", "wc", job, splits)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs := s.Jobs()
		if len(jobs) != 1 {
			t.Fatalf("Jobs() = %d entries, want 1", len(jobs))
		}
		info := jobs[0]
		if info.ID != j.ID || info.Tenant != "alice" || info.State != "done" || info.Latency <= 0 {
			t.Fatalf("JobInfo = %+v", info)
		}
	})
}
