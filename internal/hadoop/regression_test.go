package hadoop

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// Regression tests for the reduce-copier scheduling fixes: the copy loop
// must pace its mapLocations polling at the heartbeat interval when a
// poll makes no progress, and a mapID advertised twice in one response
// must merge exactly once.

// TestReducePollingBoundedWhileMapsPending: two map splits, the second
// deliberately slow, one reducer launched by slowstart after the first
// map completes. For ~150 ms the reducer's polls return nothing new; the
// no-progress backoff must pace them at the heartbeat interval. The old
// hot loop issued mapLocations RPCs back to back and racked up thousands
// of calls in that window.
func TestReducePollingBoundedWhileMapsPending(t *testing.T) {
	slowMapper := mapred.MapperFunc(func(k, line []byte, emit mapred.Emit) error {
		if bytes.Contains(line, []byte("sloth")) {
			time.Sleep(150 * time.Millisecond)
		}
		return wcMapper.Map(k, line, emit)
	})
	splits := []mapred.Split{
		mapred.NewPairSplit(0, []kv.Pair{{Key: nil, Value: []byte("quick fox")}}),
		mapred.NewPairSplit(1, []kv.Pair{{Key: nil, Value: []byte("sloth nap")}}),
	}
	job := mapred.Job{
		Name:        "poll-regression",
		Mapper:      slowMapper,
		Reducer:     wcReducer,
		NumReducers: 1,
	}
	m := metrics.NewRegistry()
	res, _, err := runJob(job, splits, Config{
		NumTrackers: 2, MapSlots: 1, ReduceSlots: 1,
		Heartbeat: 2 * time.Millisecond,
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := decode(t, res.Pairs())
	for _, w := range []string{"quick", "fox", "sloth", "nap"} {
		if got[w] != 1 {
			t.Fatalf("count[%q] = %d, want 1", w, got[w])
		}
	}
	// Paced polling: ~150 ms of waiting at a 2 ms heartbeat is ~75 polls
	// plus scheduling noise. 400 leaves 5x headroom; the hot loop exceeds
	// it several times over.
	polls := m.Snapshot().Counter("rpc.calls.mapLocations")
	if polls == 0 {
		t.Fatal("no mapLocations polls recorded — metrics not wired")
	}
	if polls > 400 {
		t.Fatalf("mapLocations polled %d times while maps pending — copy loop is hot-polling", polls)
	}
}

// fakeJobTracker serves just enough of the jobtracker protocol for a
// taskTracker to register and for runReduceTask to poll: mapLocations
// always answers with the given advertisement list.
func fakeJobTracker(t *testing.T, locs []mapOutputLoc) (string, func()) {
	t.Helper()
	srv := hadooprpc.NewServer()
	srv.Register(&hadooprpc.Protocol{
		Name:    jtProtocolName,
		Version: jtProtocolVersion,
		Methods: map[string]hadooprpc.Handler{
			"register": func(params [][]byte) ([]byte, error) {
				return kv.AppendVLong(nil, 0), nil
			},
			"mapLocations": func(params [][]byte) ([]byte, error) {
				resp := kv.AppendVLong(nil, int64(len(locs)))
				for _, l := range locs {
					resp = kv.AppendVLong(resp, int64(l.mapID))
					resp = kv.AppendVLong(resp, int64(l.trackerID))
					resp = kv.AppendBytes(resp, []byte(l.addr))
				}
				return resp, nil
			},
			"fetchFailed": func(params [][]byte) ([]byte, error) {
				t.Error("unexpected fetchFailed report")
				return nil, nil
			},
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, func() { srv.Close() }
}

// runReduceAgainst runs one reduce task against a fake jobtracker that
// advertises the given locations, returning the reduce output framed.
func runReduceAgainst(t *testing.T, locs []mapOutputLoc, numSplits int) []byte {
	t.Helper()
	jtAddr, stop := fakeJobTracker(t, locs)
	defer stop()
	splits := make([]mapred.Split, numSplits)
	for i := range splits {
		splits[i] = mapred.NewPairSplit(i, nil)
	}
	job := mapred.Job{Mapper: wcMapper, Reducer: wcReducer, NumReducers: 1}
	tt, err := newTaskTracker(context.Background(), 0, jtAddr, newOutputCommitter(1), job, splits, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer tt.close()
	out, _, err := tt.runReduceTask(0, 0, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	return encodePairs(out.Pairs())
}

// TestDuplicateMapAdvertisementMergesOnce: a re-executed map can appear
// twice in one mapLocations response (the old and the new completion,
// both listed). The copy loop must fetch and merge it exactly once; the
// old code queued both entries and merged the values twice, inflating
// counts. The reduce output must be byte-identical to the run where each
// map is advertised once.
func TestDuplicateMapAdvertisementMergesOnce(t *testing.T) {
	one := kv.AppendVLong(nil, 1)
	store := jetty.NewStore()
	store.Put(jetty.OutputKey{Job: jobName, Map: 0, Reduce: 0},
		kv.AppendKeyList(kv.AppendKeyList(nil,
			kv.KeyList{Key: []byte("alpha"), Values: [][]byte{one}}),
			kv.KeyList{Key: []byte("beta"), Values: [][]byte{one}}))
	store.Put(jetty.OutputKey{Job: jobName, Map: 1, Reduce: 0},
		kv.AppendKeyList(nil, kv.KeyList{Key: []byte("alpha"), Values: [][]byte{one}}))
	js := jetty.NewServer(store)
	jAddr, err := js.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()

	unique := []mapOutputLoc{
		{mapID: 0, trackerID: 0, addr: jAddr},
		{mapID: 1, trackerID: 0, addr: jAddr},
	}
	duplicated := []mapOutputLoc{
		{mapID: 0, trackerID: 0, addr: jAddr},
		{mapID: 0, trackerID: 0, addr: jAddr}, // same map advertised twice
		{mapID: 1, trackerID: 0, addr: jAddr},
	}
	want := runReduceAgainst(t, unique, 2)
	got := runReduceAgainst(t, duplicated, 2)
	if !bytes.Equal(got, want) {
		t.Fatalf("duplicate advertisement changed reduce output (%d vs %d bytes)", len(got), len(want))
	}
	counts := decode(t, mustDecodePairs(t, got))
	if counts["alpha"] != 2 || counts["beta"] != 1 {
		t.Fatalf("counts = %v, want alpha=2 beta=1", counts)
	}
}

func mustDecodePairs(t *testing.T, b []byte) []kv.Pair {
	t.Helper()
	var pairs []kv.Pair
	for len(b) > 0 {
		p, n, err := kv.ReadPair(b)
		if err != nil {
			t.Fatal(err)
		}
		pairs, b = append(pairs, p), b[n:]
	}
	return pairs
}

// TestChaosTrackerCrashReportCounters re-runs the tracker-crash chaos
// scenario and reads the job report: it must surface the fault
// (injected-crash counter), the recovery (re-execution and tracker-loss
// counters) and a complete per-reducer phase breakdown.
func TestChaosTrackerCrashReportCounters(t *testing.T) {
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
	res, rep, err := runJob(job, splits, Config{
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
	if res.MaxTaskExecutions < 2 {
		t.Fatalf("MaxTaskExecutions = %d, want >= 2", res.MaxTaskExecutions)
	}
	if rep == nil {
		t.Fatal("nil job report")
	}
	if n := rep.Metrics.Counter("faults.injected.crash"); n == 0 {
		t.Error("faults.injected.crash = 0, want > 0 — injector not wired to the job registry")
	}
	if n := rep.Metrics.Counter("hadoop.trackers_lost"); n == 0 {
		t.Error("hadoop.trackers_lost = 0, want > 0")
	}
	if n := rep.Metrics.Counter("hadoop.reexecutions"); n == 0 {
		t.Error("hadoop.reexecutions = 0, want > 0 after tracker loss")
	}
	if len(rep.Reduces) != 3 {
		t.Fatalf("report has %d reduce timings, want 3", len(rep.Reduces))
	}
	for _, rt := range rep.Reduces {
		if rt.Total() <= 0 {
			t.Errorf("reduce %d: zero total phase time", rt.Task)
		}
	}
	if share := rep.CopyShareOfReduce(); share <= 0 || share > 100 {
		t.Errorf("CopyShareOfReduce = %.1f, want in (0, 100]", share)
	}
	if len(rep.Maps) != len(splits) {
		t.Errorf("report has %d map timings, want %d", len(rep.Maps), len(splits))
	}
}

// TestWatchHandleInertOnceJobOver: a liveness prober keeps the handle
// Config.Watch gave it until the job returns, while the trackers are
// already closing their shuffle servers. The handle used to go on listing
// every tracker as alive, so a prober read the shutdown as death — a dead
// verdict (and an unhealthy /healthz) for a job that had succeeded. Once
// the job is over the handle must list nothing and accept no verdict.
func TestWatchHandleInertOnceJobOver(t *testing.T) {
	var cc ClusterControl
	text := genText(t, 20_000, 41)
	_, _, err := runJob(wcJob(2), mapred.SplitText(text, 5_000), Config{
		NumTrackers: 2,
		Watch:       func(c ClusterControl) { cc = c },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cc == nil {
		t.Fatal("Watch never called")
	}
	if got := cc.Trackers(); len(got) != 0 {
		t.Fatalf("Trackers() after the job finished = %+v, want none", got)
	}
	if cc.MarkLost(0) {
		t.Fatal("MarkLost acted on a finished job")
	}
}
