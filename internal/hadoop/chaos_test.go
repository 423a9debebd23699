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
