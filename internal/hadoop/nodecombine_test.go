package hadoop

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// observedWC is wcJob with the combiner supplied as an ObservedCombiner
// factory, so every combine stage binds to the job's registry.
func observedWC(reducers int) mapred.Job {
	job := wcJob(reducers)
	job.Combiner = nil
	job.ObservedCombiner = func(reg *metrics.Registry) core.CombineFunc {
		return mapred.CombinerFromReducerObserved(wcReducer, reg)
	}
	return job
}

// TestNodeCombineByteIdenticalAndFewerBytes is the headline property of
// the per-tracker combine stage: identical job output, strictly fewer
// shuffle bytes on the wire (each key ships once per tracker group
// instead of once per map), and the node-combine counters visible in the
// job registry.
func TestNodeCombineByteIdenticalAndFewerBytes(t *testing.T) {
	text := genText(t, 80_000, 21)
	splits := mapred.SplitText(text, 5_000)
	job := observedWC(3)

	base := metrics.NewRegistry()
	want, err := Run(job, splits, Config{NumTrackers: 3, Metrics: base})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	got, err := Run(job, splits, Config{NumTrackers: 3, NodeCombine: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePairs(got.Pairs()), encodePairs(want.Pairs())) {
		t.Fatal("NodeCombine changed job output")
	}
	snap := reg.Snapshot()
	if snap.Counter("hadoop.node_combines") == 0 {
		t.Fatal("no node-level combine stage ran")
	}
	if snap.Counter("hadoop.node_combine_maps") == 0 {
		t.Fatal("node combine stage covered no maps")
	}
	baseBytes := base.Snapshot().Counter("shuffle.fetch_bytes")
	ncBytes := snap.Counter("shuffle.fetch_bytes")
	if baseBytes == 0 || ncBytes == 0 {
		t.Fatalf("fetch byte counters not wired (base=%d, nodecombine=%d)", baseBytes, ncBytes)
	}
	if ncBytes >= baseBytes {
		t.Fatalf("node combining did not reduce shuffle bytes: %d >= %d", ncBytes, baseBytes)
	}
}

// TestNodeCombineFallbackCounter: a combiner whose derived reducer rekeys
// its output trips CombinerFromReducer's fallback everywhere it runs. The
// node-level combine stage must emit those fallbacks into the job
// registry too — per-node combine failures have to be visible in
// /metrics.prom — so the NodeCombine run records strictly more of them
// than the per-task run, and the output (fallback passes values through
// untouched) still matches the combiner-free reference. Eight maps keep
// every reducer below the merge factor, so no background merge pass
// muddies the comparison.
func TestNodeCombineFallbackCounter(t *testing.T) {
	rekey := mapred.ReducerFunc(func(_ []byte, values [][]byte, emit mapred.Emit) error {
		var total int64
		for _, v := range values {
			n, _, err := kv.ReadVLong(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit([]byte("rekeyed"), kv.AppendVLong(nil, total))
	})
	text := genText(t, 40_000, 23)
	splits := mapred.SplitText(text, 5_000)
	job := wcJob(2)
	job.Combiner = nil
	job.ObservedCombiner = func(reg *metrics.Registry) core.CombineFunc {
		return mapred.CombinerFromReducerObserved(rekey, reg)
	}

	plain, err := Run(wcJob(2), splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	taskReg := metrics.NewRegistry()
	if _, err := Run(job, splits, Config{NumTrackers: 2, Metrics: taskReg}); err != nil {
		t.Fatal(err)
	}
	nodeReg := metrics.NewRegistry()
	got, err := Run(job, splits, Config{NumTrackers: 2, NodeCombine: true, Metrics: nodeReg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePairs(got.Pairs()), encodePairs(plain.Pairs())) {
		t.Fatal("fallback did not pass values through untouched")
	}
	taskFB := taskReg.Snapshot().Counter("mapred.combiner.fallback")
	nodeFB := nodeReg.Snapshot().Counter("mapred.combiner.fallback")
	if taskFB == 0 {
		t.Fatal("rekeying combiner tripped no fallbacks at all")
	}
	if nodeFB <= taskFB {
		t.Fatalf("node-level combine stage emitted no fallbacks: %d (node) vs %d (per-task)", nodeFB, taskFB)
	}
}

// TestGroupFetchFailureFallsBackToPerMap: a reducer whose group-segment
// fetch fails (here: the group key is simply absent from the serving
// store, as after a partial tracker wipe) must fall back to unicast
// per-map re-fetches in the same round, without reporting fetchFailed.
func TestGroupFetchFailureFallsBackToPerMap(t *testing.T) {
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

	const gid = int64(-7)
	srv := hadooprpc.NewServer()
	srv.Register(&hadooprpc.Protocol{
		Name:    jtProtocolName,
		Version: jtProtocolVersion,
		Methods: map[string]hadooprpc.Handler{
			"register": func(params [][]byte) ([]byte, error) {
				return kv.AppendVLong(nil, 0), nil
			},
			"mapLocations": func(params [][]byte) ([]byte, error) {
				resp := kv.AppendVLong(nil, 2)
				for mapID := int64(0); mapID < 2; mapID++ {
					resp = kv.AppendVLong(resp, mapID)
					resp = kv.AppendVLong(resp, 0)
					resp = kv.AppendBytes(resp, []byte(jAddr))
					resp = kv.AppendVLong(resp, gid)
				}
				resp = kv.AppendVLong(resp, 1) // group table: gid -> {0, 1}
				resp = kv.AppendVLong(resp, gid)
				resp = kv.AppendVLong(resp, 2)
				resp = kv.AppendVLong(resp, 0)
				resp = kv.AppendVLong(resp, 1)
				return resp, nil
			},
			"fetchFailed": func(params [][]byte) ([]byte, error) {
				t.Error("fetchFailed reported: per-map fallback should have recovered the group")
				return nil, nil
			},
		},
	})
	jtAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	splits := []mapred.Split{mapred.NewPairSplit(0, nil), mapred.NewPairSplit(1, nil)}
	job := mapred.Job{Mapper: wcMapper, Reducer: wcReducer, NumReducers: 1}
	tt, err := newTaskTracker(context.Background(), 0, jtAddr, job, splits,
		Config{NodeCombine: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer tt.close()
	out, _, err := tt.runReduceTask(0, 0, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	counts := decode(t, mustDecodePairs(t, out))
	if counts["alpha"] != 2 || counts["beta"] != 1 {
		t.Fatalf("counts = %v, want alpha=2 beta=1", counts)
	}
}

// TestChaosNodeCombineTrackerCrash: a tracker crash mid-job with
// NodeCombine on — taking its group segment, per-map segments and pending
// node batch down with it — must still produce byte-identical output via
// re-execution and fresh groups on the survivors.
func TestChaosNodeCombineTrackerCrash(t *testing.T) {
	text := genText(t, 120_000, 24)
	splits := mapred.SplitText(text, 3_000)
	slowMapper := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		time.Sleep(2 * time.Millisecond)
		return wcMapper.Map(k, v, emit)
	})
	job := observedWC(3)
	job.Mapper = slowMapper

	clean, err := Run(job, splits, Config{NumTrackers: 3, NodeCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(5, faults.Rule{
		Component: "hadoop.tracker1",
		Operation: "heartbeat",
		After:     10,
		Action:    faults.Crash,
	})
	reg := metrics.NewRegistry()
	got, err := Run(job, splits, Config{
		NumTrackers: 3,
		NodeCombine: true,
		Injector:    inj,
		Metrics:     reg,
		RPC: hadooprpc.Options{
			MaxAttempts: 4,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePairs(got.Pairs()), encodePairs(clean.Pairs())) {
		t.Fatal("tracker crash under NodeCombine changed job output")
	}
	if reg.Snapshot().Counter("hadoop.trackers_lost") == 0 {
		t.Fatal("crash was not detected as tracker loss")
	}
}
