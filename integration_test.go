// Integration tests exercising the whole stack end to end: DFS storage,
// TextInputFormat splits, the MapReduce framework, the MPI-D library, the
// message-passing runtime (both transports), and the experiment drivers.
package mpid_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/dfs"
	"github.com/ict-repro/mpid/internal/experiments"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestFullPipelineDFSToMPIDToDFS runs the complete Hadoop-shaped flow on
// real components: ingest into the mini-HDFS, kill a datanode, run
// WordCount on the MPI-D runtime over per-block splits, write part files
// back, and verify against a sequential reference.
func TestFullPipelineDFSToMPIDToDFS(t *testing.T) {
	nn, err := dfs.NewCluster(5, dfs.Config{BlockSize: 4 << 10, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(800, 77)
	text := workload.NewTextGenerator(vocab, 1.2, 78).BytesOfText(120 << 10)

	w, err := nn.Create("/in")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(text); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	nn.DataNode(1).Fail() // replication must carry the job

	splits, err := mapred.DFSSplits(nn, "/in")
	if err != nil {
		t.Fatal(err)
	}
	job := mapred.Job{
		Mapper:      benchMapper,
		Reducer:     benchReducer,
		Combiner:    mapred.CombinerFromReducer(benchReducer),
		NumReducers: 3,
	}
	res, err := mapred.Run(job, splits, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Write part files back into the DFS and re-read them.
	for r, pairs := range res.ByReducer {
		out, err := nn.Create(fmt.Sprintf("/out/part-%d", r))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			n, _, err := kv.ReadVLong(p.Value)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "%s\t%d\n", p.Key, n)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reference counts from the original text.
	want := make(map[string]int64)
	for _, line := range strings.Split(string(text), "\n") {
		for _, word := range strings.Fields(line) {
			want[word]++
		}
	}

	// Parse the part files back.
	got := make(map[string]int64)
	for r := 0; r < 3; r++ {
		f, err := nn.Open(fmt.Sprintf("/out/part-%d", r))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			if line == "" {
				continue
			}
			parts := strings.SplitN(line, "\t", 2)
			var n int64
			fmt.Sscanf(parts[1], "%d", &n)
			got[parts[0]] += n
		}
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for word, n := range want {
		if got[word] != n {
			t.Errorf("count[%q] = %d, want %d", word, got[word], n)
		}
	}
}

// TestMPIDOverTCPTransport runs the real MPI-D library over real sockets:
// the same WordCount flow, but every intermediate byte crosses the kernel.
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
