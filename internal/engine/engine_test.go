package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/metrics"
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
		res, rep, err := eng.Run(context.Background(), job, splits, Telemetry{Metrics: reg})
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

		if _, _, err := eng.Run(dead, job, splits, Telemetry{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: %v, want context.Canceled", name, err)
		}
	}
	if len(outputs[0]) == 0 || string(outputs[0]) != string(outputs[1]) {
		t.Fatalf("engines disagree: %d vs %d output bytes", len(outputs[0]), len(outputs[1]))
	}
}
