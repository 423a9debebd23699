// Integration tests that cross package boundaries: the MPI-D library over
// the TCP message-passing runtime, the experiment drivers checked against
// each other, and the workload generator's determinism.
package mpid_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/experiments"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestMPIDOverTCPTransport runs the real MPI-D library over real sockets:
// a WordCount whose every intermediate byte crosses the kernel.
func TestMPIDOverTCPTransport(t *testing.T) {
	w, err := mpi.NewTCPWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	words := []string{"mpi", "hadoop", "shuffle", "mpi", "jetty", "mpi", "hadoop"}
	results := make(map[string]int64)
	err = mpi.RunOn(w, func(c *mpi.Comm) error {
		d, err := core.Init(core.Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for _, word := range words {
				if err := d.Send([]byte(word), kv.AppendVLong(nil, 1)); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		for {
			key, values, err := d.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			var total int64
			for _, v := range values {
				n, _, err := kv.ReadVLong(v)
				if err != nil {
					return err
				}
				total += n
			}
			results[string(key)] = total
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 sender ranks x the word list.
	if results["mpi"] != 9 || results["hadoop"] != 6 || results["shuffle"] != 3 {
		t.Fatalf("results = %v", results)
	}
}

// TestReportPipelineCoherence cross-checks the experiment drivers against
// each other: the models driving Figure 2 must be the same ones whose
// bandwidth shape Figure 3 reports.
func TestReportPipelineCoherence(t *testing.T) {
	rows2, err := experiments.Figure2(experiments.Large, experiments.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	rows3, err := experiments.Figure3(experiments.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	// The 64 MB single-message latency must be consistent with the 64 MB
	// packet bandwidth: bandwidth ~ size/latency within a small factor.
	last2 := rows2[len(rows2)-1]
	if last2.Size != 64*netmodel.MB {
		t.Fatalf("unexpected last size %d", last2.Size)
	}
	var bw64 float64
	for _, r := range rows3 {
		if r.Packet == 64*netmodel.MB {
			bw64 = r.MPI
		}
	}
	implied := float64(64*netmodel.MB) / last2.MPI.Seconds()
	if bw64 < implied*0.8 || bw64 > implied*1.3 {
		t.Errorf("figure 2/3 inconsistent at 64MB: bw %g vs implied %g", bw64, implied)
	}
}

// TestWorkloadFeedsAllConsumers makes sure one generator seeds both the
// real examples and the simulators identically (determinism across the
// repo).
func TestWorkloadFeedsAllConsumers(t *testing.T) {
	v1 := workload.NewVocabulary(100, 42)
	v2 := workload.NewVocabulary(100, 42)
	a := workload.NewTextGenerator(v1, 1.1, 1).BytesOfText(10_000)
	b := workload.NewTextGenerator(v2, 1.1, 1).BytesOfText(10_000)
	if !bytes.Equal(a, b) {
		t.Fatal("generator not reproducible across instances")
	}
}
