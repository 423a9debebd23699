package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

func TestNewSelectsByName(t *testing.T) {
	cluster := hadoop.Config{NumTrackers: 3, MapSlots: 1}
	for name, want := range map[string]Engine{
		"":       MPID{Mappers: 3},
		"mpid":   MPID{Mappers: 3},
		"hadoop": Hadoop{Config: cluster},
	} {
		got, err := New(name, cluster)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("New(%q) = %#v, %v; want %#v", name, got, err, want)
		}
	}
	if _, err := New("spark", cluster); err == nil {
		t.Error("New accepted an engine that does not exist")
	}
}

// TestContract runs one job through both engines as a caller of the
// interface sees them: same canonical output, the job's metrics in the
// registry handed in, a report from hadoop alone, and a dead context
// refused with the context's own error.
func TestContract(t *testing.T) {
	job, splits, err := workload.WordCount(map[string]int64{"bytes": 16 << 10, "split": 4 << 10, "reducers": 2})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var outputs [][]byte
	for _, name := range []string{"mpid", "hadoop"} {
		eng, err := New(name, hadoop.Config{}) // default size: 2 mappers / 2 trackers
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		res, rep, err := eng.Run(context.Background(), job, splits, obs.Telemetry{Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (rep != nil) != (name == "hadoop") {
			t.Errorf("%s: report present = %v", name, rep != nil)
		}
		own := map[string]string{"mpid": "mpid.spill", "hadoop": "task.map.run"}[name]
		if reg.Timer(own).Stats().Count == 0 {
			t.Errorf("%s: the registry handed in saw no %s", name, own)
		}
		var flat []byte
		for _, p := range res.Pairs() {
			flat = append(append(append(flat, p.Key...), 0), p.Value...)
		}
		outputs = append(outputs, flat)

		if _, _, err := eng.Run(dead, job, splits, obs.Telemetry{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: %v, want context.Canceled", name, err)
		}
	}
	if len(outputs[0]) == 0 || string(outputs[0]) != string(outputs[1]) {
		t.Fatalf("engines disagree: %d vs %d output bytes", len(outputs[0]), len(outputs[1]))
	}
}

// TestEmitCopiesBeforeReturning pins mapred.Emit's contract at the emit sites
// of both engines — the mapper's (MPI-D's direct and buffered-for-retry
// variants, hadoop's collector) and the reducer's: key and value are copied
// before emit returns. A mapper and a reducer that each keep one key buffer
// and one value buffer for the whole task, and scribble over both right after
// every emit, produce the output of the same job written with fresh slices.
func TestEmitCopiesBeforeReturning(t *testing.T) {
	// The job: count words, and emit each under "<word>!" beside a marker.
	build := func(reuse bool) mapred.Job {
		var mu sync.Mutex // map tasks of one process may share the closure's buffers
		var kbuf, vbuf []byte
		emitVia := func(emit mapred.Emit, key, value []byte) error {
			if !reuse {
				return emit(bytes.Clone(key), bytes.Clone(value))
			}
			mu.Lock()
			defer mu.Unlock()
			kbuf, vbuf = append(kbuf[:0], key...), append(vbuf[:0], value...)
			err := emit(kbuf, vbuf)
			for _, b := range [][]byte{kbuf, vbuf} {
				for i := range b {
					b[i] = 0xFF
				}
			}
			return err
		}
		return mapred.Job{
			Name:        "emit-contract",
			NumReducers: 2,
			Mapper: mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
				for _, w := range bytes.Fields(line) {
					if err := emitVia(emit, w, []byte{1}); err != nil {
						return err
					}
				}
				return nil
			}),
			Reducer: mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
				if err := emitVia(emit, key, []byte(strconv.Itoa(len(values)))); err != nil {
					return err
				}
				return emitVia(emit, append(bytes.Clone(key), '!'), []byte("seen"))
			}),
		}
	}
	_, splits, err := workload.WordCount(map[string]int64{"bytes": 16 << 10, "split": 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine string, attempts int, reuse bool) []kv.Pair {
		t.Helper()
		eng, err := New(engine, hadoop.Config{})
		if err != nil {
			t.Fatal(err)
		}
		job := build(reuse)
		job.MaxTaskAttempts = attempts
		res, _, err := eng.Run(context.Background(), job, splits, obs.Telemetry{})
		if err != nil {
			t.Fatalf("%s engine: %v", engine, err)
		}
		return res.Pairs()
	}
	want := run("mpid", 0, false)
	if len(want) == 0 {
		t.Fatal("the reference run produced nothing")
	}
	for _, c := range []struct {
		engine   string
		attempts int
	}{{"mpid", 0}, {"mpid", 3}, {"hadoop", 0}} {
		t.Run(fmt.Sprintf("%s/attempts=%d", c.engine, c.attempts), func(t *testing.T) {
			if got := run(c.engine, c.attempts, true); !pairsEqual(got, want) {
				t.Fatalf("reused buffers changed the output: %d pairs, want %d as with fresh slices", len(got), len(want))
			}
		})
	}
}
