package hadoop

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/dfs"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
)

// Chaos tests: the live engine must complete jobs — with output
// byte-identical to a fault-free run — while the fault injector breaks
// RPCs, kills a tasktracker mid-job, and crashes a DataNode mid-read.
// All seeds are fixed; the suites are deterministic.

// encodePairs frames a sorted pair list for byte-exact comparison.
func encodePairs(pairs []kv.Pair) []byte {
	var buf []byte
	for _, p := range pairs {
		buf = kv.AppendPair(buf, p)
	}
	return buf
}

func wcJob(reducers int) mapred.Job {
	return mapred.Job{
		Name:        "chaos-wc",
		Mapper:      wcMapper,
		Reducer:     wcReducer,
		Combiner:    mapred.CombinerFromReducer(wcReducer),
		NumReducers: reducers,
	}
}

// TestChaosWordCountUnderFlakyRPC runs WordCount while every tenth RPC
// call (statistically, under a fixed seed) fails at the client injection
// point. With a retry budget the job must complete and its output must be
// byte-identical to the fault-free run.
func TestChaosWordCountUnderFlakyRPC(t *testing.T) {
	text := genText(t, 40_000, 7)
	splits := mapred.SplitText(text, 4_000)
	job := wcJob(3)

	clean, _, err := runJob(job, splits, Config{NumTrackers: 3})
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.New(42, faults.Rule{
		Component:   "hadooprpc.client",
		Operation:   "call",
		Probability: 0.1,
		Action:      faults.Fail,
	})
	res, _, err := runJob(job, splits, Config{
		NumTrackers: 3,
		Injector:    inj,
		RPC: hadooprpc.Options{
			MaxAttempts: 8,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("job under flaky RPC: %v", err)
	}
	if inj.Count("hadooprpc.client", "call") == 0 {
		t.Fatal("injector never saw an RPC call — injection points not wired")
	}
	if got, want := encodePairs(res.Pairs()), encodePairs(clean.Pairs()); !bytes.Equal(got, want) {
		t.Fatalf("output under faults differs from fault-free run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosTrackerCrashMidJob kills one of three tasktrackers at its 11th
// heartbeat — taking its shuffle server, completed map outputs, and
// running tasks with it. The jobtracker must detect the loss, re-execute
// the dead tracker's work on the survivors, redirect reducers to the new
// map outputs, and still produce byte-identical output.
func TestChaosTrackerCrashMidJob(t *testing.T) {
	text := genText(t, 120_000, 11)
	splits := mapred.SplitText(text, 3_000) // ~40 map tasks
	// Slow the mapper slightly so the doomed tracker still has completed
	// and in-flight maps when it dies.
	slowMapper := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		time.Sleep(3 * time.Millisecond)
		return wcMapper.Map(k, v, emit)
	})
	job := wcJob(3)
	job.Mapper = slowMapper

	clean, _, err := runJob(job, splits, Config{NumTrackers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if clean.MaxTaskExecutions != 1 {
		t.Fatalf("fault-free MaxTaskExecutions = %d, want 1", clean.MaxTaskExecutions)
	}

	inj := faults.New(1, faults.Rule{
		Component: "hadoop.tracker1",
		Operation: "heartbeat",
		After:     10,
		Action:    faults.Crash,
	})
	res, _, err := runJob(job, splits, Config{
		NumTrackers:    3,
		Injector:       inj,
		TrackerTimeout: 200 * time.Millisecond,
		RPC: hadooprpc.Options{
			MaxAttempts: 3,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("job with tracker crash: %v", err)
	}
	if !inj.Crashed("hadoop.tracker1") {
		t.Fatal("tracker 1 never crashed — injection point not reached")
	}
	// The dead tracker had finished (or was running) tasks; those must
	// have been re-executed elsewhere.
	if res.MaxTaskExecutions < 2 {
		t.Fatalf("MaxTaskExecutions = %d, want >= 2 (re-execution after tracker loss)", res.MaxTaskExecutions)
	}
	if res.FailedAttempts == 0 {
		t.Fatal("FailedAttempts = 0, want > 0 after tracker loss")
	}
	if got, want := encodePairs(res.Pairs()), encodePairs(clean.Pairs()); !bytes.Equal(got, want) {
		t.Fatalf("output after tracker crash differs from fault-free run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosDataNodeCrashMidRead runs WordCount over DFS input while a
// DataNode crashes partway through serving block reads: replica failover
// inside the DFS read path must absorb the loss without a single task
// failure, and the counts must be exact.
func TestChaosDataNodeCrashMidRead(t *testing.T) {
	nn, err := dfs.NewCluster(3, dfs.Config{BlockSize: 2_048, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	text := genText(t, 50_000, 3)
	w, err := nn.Create("/input")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, bytes.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	splits, err := mapred.DFSSplits(nn, "/input")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 4 {
		t.Fatalf("only %d splits — too few to crash mid-read", len(splits))
	}

	// Node 2 survives its first three block reads, then dies.
	inj := faults.New(1, faults.Rule{
		Component: "dfs.datanode2",
		Operation: "read",
		After:     3,
		Action:    faults.Crash,
	})
	nn.SetInjector(inj)

	res, _, err := runJob(wcJob(2), splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatalf("job with DataNode crash: %v", err)
	}
	if !nn.DataNode(2).Down() {
		t.Fatal("datanode 2 never crashed — too few reads reached it")
	}
	got := decode(t, res.Pairs())
	want := refCounts(text)
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for word, n := range want {
		if got[word] != n {
			t.Fatalf("count[%q] = %d, want %d", word, got[word], n)
		}
	}
	// Failover, not re-execution, absorbed this fault.
	if res.FailedAttempts != 0 {
		t.Fatalf("FailedAttempts = %d, want 0 (DFS failover should be invisible to the engine)", res.FailedAttempts)
	}
}

// TestChaosTrackerCrashAfterStagingReduce kills a tracker between staging a
// reduce's part in the job's output committer and reporting the reduce
// complete. The part no completion names must be dropped, the reduce must
// re-execute on a survivor, and the output must be byte-identical.
func TestChaosTrackerCrashAfterStagingReduce(t *testing.T) {
	text := genText(t, 60_000, 13)
	splits := mapred.SplitText(text, 3_000)
	slowMapper := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		time.Sleep(time.Millisecond)
		return wcMapper.Map(k, v, emit)
	})
	job := wcJob(3)
	job.Mapper = slowMapper
	// One reduce slot per tracker: each of the three trackers runs one of
	// the three reduces, so the doomed one stages a part.
	cfg := Config{NumTrackers: 3, ReduceSlots: 1}
	clean, _, err := runJob(job, splits, cfg)
	if err != nil {
		t.Fatal(err)
	}

	inj := faults.New(1, faults.Rule{Component: "hadoop.tracker1", Operation: "commit", Action: faults.Crash})
	cfg.Injector = inj
	cfg.TrackerTimeout = 200 * time.Millisecond
	res, rep, err := runJob(job, splits, cfg)
	if err != nil {
		t.Fatalf("job with tracker crash after staging: %v", err)
	}
	if !inj.Crashed("hadoop.tracker1") {
		t.Fatal("tracker 1 never reached the commit point")
	}
	if res.MaxTaskExecutions < 2 {
		t.Fatalf("MaxTaskExecutions = %d, want >= 2 (the reduce re-executed)", res.MaxTaskExecutions)
	}
	if n := rep.Metrics.Counter("hadoop.outputs_dropped"); n != 1 {
		t.Fatalf("hadoop.outputs_dropped = %d, want 1 (the dead attempt's part)", n)
	}
	if got, want := encodePairs(res.Pairs()), encodePairs(clean.Pairs()); !bytes.Equal(got, want) {
		t.Fatalf("output after crash at commit differs from fault-free run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosLateReduceCompletionKeepsPromotedPart drives the jobtracker's
// commit protocol directly: two attempts of one reduce stage different
// parts, the second completes first and is promoted, and the first one's
// late completion must neither replace the promoted part nor leave its own
// part staged. An attempt staging after the commit leaves nothing either.
func TestChaosLateReduceCompletionKeepsPromotedPart(t *testing.T) {
	jt := newJobTracker(wcJob(1), nil, Config{}.withDefaults())
	for i := 0; i < 2; i++ {
		if _, err := jt.handleRegister([][]byte{[]byte("127.0.0.1:0")}); err != nil {
			t.Fatal(err)
		}
	}
	loser := []kv.Pair{{Key: []byte("k"), Value: []byte("old")}}
	winner := []kv.Pair{{Key: []byte("k"), Value: []byte("new")}}
	complete := func(tracker, attempt int, part []kv.Pair) {
		t.Helper()
		params := [][]byte{
			kv.AppendVLong(nil, int64(tracker)), kv.AppendVLong(nil, 0), kv.AppendVLong(nil, int64(attempt)),
			kv.AppendVLong(nil, int64(len(part))), kv.AppendVLong(nil, 4),
		}
		for i := 0; i < 4; i++ {
			params = append(params, kv.AppendVLong(nil, 0))
		}
		if _, err := jt.handleReduceCompleted(params); err != nil {
			t.Fatal(err)
		}
	}
	jt.out.stage(0, 1, loser, 4)
	jt.out.stage(0, 2, winner, 4)
	complete(1, 2, winner)
	complete(0, 1, loser)
	jt.out.stage(0, 3, loser, 4)

	if got := encodePairs(jt.outputs[0]); !bytes.Equal(got, encodePairs(winner)) {
		t.Fatalf("promoted part replaced: %q", got)
	}
	if jt.reducesDone != 1 {
		t.Fatalf("reducesDone = %d, want 1", jt.reducesDone)
	}
	if n := len(jt.out.staged); n != 0 {
		t.Fatalf("%d parts still staged after the commit, want 0", n)
	}
	if n := jt.met.Snapshot().Counter("hadoop.outputs_dropped"); n != 1 {
		t.Fatalf("hadoop.outputs_dropped = %d, want 1", n)
	}
}
