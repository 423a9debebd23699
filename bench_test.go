// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus live micro-benchmarks of
// the real substrates and ablations of the MPI-D design choices called out
// in DESIGN.md §6.
//
// Paper artifacts report their headline quantity via b.ReportMetric so the
// bench output doubles as a reproduction check:
//
//	BenchmarkFigure2aLatencySmall   ratio-1B / ratio-1KB
//	BenchmarkFigure3Bandwidth       peak MB/s per substrate
//	BenchmarkFigure1ShuffleOverhead copy share of reducer lifecycle
//	BenchmarkTable1CopyPercentage   copy %% at the largest swept size
//	BenchmarkFigure6WordCount       MPI-D/Hadoop time ratio
package mpid_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/experiments"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper artifacts

func benchFigure2(b *testing.B, panel experiments.SizeRange) {
	var rows []experiments.Figure2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure2(panel, experiments.Model)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Ratio(), "ratio-first")
	b.ReportMetric(rows[len(rows)-1].Ratio(), "ratio-last")
}

func BenchmarkFigure2aLatencySmall(b *testing.B)  { benchFigure2(b, experiments.Small) }
func BenchmarkFigure2bLatencyMedium(b *testing.B) { benchFigure2(b, experiments.Medium) }
func BenchmarkFigure2cLatencyLarge(b *testing.B)  { benchFigure2(b, experiments.Large) }

func BenchmarkFigure3Bandwidth(b *testing.B) {
	var rows []experiments.Figure3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure3(experiments.Model)
		if err != nil {
			b.Fatal(err)
		}
	}
	rpc, jettyPeak, mpiPeak, _ := experiments.PeakBandwidths(rows)
	b.ReportMetric(rpc/1e6, "RPC-peak-MB/s")
	b.ReportMetric(jettyPeak/1e6, "Jetty-peak-MB/s")
	b.ReportMetric(mpiPeak/1e6, "MPI-peak-MB/s")
}

func BenchmarkFigure1ShuffleOverhead(b *testing.B) {
	// 4 GB keeps a bench iteration under a second; the cmd runs 150 GB.
	var copyShare float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1(4 * netmodel.GB)
		copyShare = r.CopyPercent()
	}
	b.ReportMetric(copyShare, "copy-%")
}

func BenchmarkTable1CopyPercentage(b *testing.B) {
	var cells []experiments.Table1Cell
	for i := 0; i < b.N; i++ {
		cells = experiments.Table1(3)
	}
	b.ReportMetric(cells[len(cells)-1].CopyPct, "copy-%-3GB-16/16")
}

func BenchmarkFigure6WordCount(b *testing.B) {
	var rows []experiments.Figure6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure6(2)
	}
	b.ReportMetric(rows[len(rows)-1].Ratio(), "mpid/hadoop-ratio")
}

// ---------------------------------------------------------------------------
// Live substrate micro-benchmarks (real code paths over loopback TCP)

func benchMPIPingPong(b *testing.B, size int64) {
	w, err := mpi.NewTCPWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	go func() {
		c1 := w.Comm(1)
		for {
			data, st, err := c1.Recv(0, mpi.AnyTag)
			if err != nil || st.Tag == 1 {
				return
			}
			if c1.Send(0, 0, data) != nil {
				return
			}
		}
	}()
	c0 := w.Comm(0)
	payload := make([]byte, size)
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c0.Send(1, 0, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c0.Recv(1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c0.Send(1, 1, nil)
}

func BenchmarkMPIPingPongTCP_1KB(b *testing.B)  { benchMPIPingPong(b, 1<<10) }
func BenchmarkMPIPingPongTCP_64KB(b *testing.B) { benchMPIPingPong(b, 64<<10) }
func BenchmarkMPIPingPongTCP_1MB(b *testing.B)  { benchMPIPingPong(b, 1<<20) }

func benchRPCEcho(b *testing.B, size int64) {
	srv := hadooprpc.NewServer()
	srv.Register(hadooprpc.NewEchoProtocol())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := hadooprpc.Dial(addr, hadooprpc.EchoProtocolName, hadooprpc.EchoProtocolVersion)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	payload := make([]byte, size)
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call("recv", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHadoopRPCEcho_1KB(b *testing.B)  { benchRPCEcho(b, 1<<10) }
func BenchmarkHadoopRPCEcho_64KB(b *testing.B) { benchRPCEcho(b, 64<<10) }
func BenchmarkHadoopRPCEcho_1MB(b *testing.B)  { benchRPCEcho(b, 1<<20) }

func BenchmarkJettyShuffleFetch_1MB(b *testing.B) {
	store := jetty.NewStore()
	srv := jetty.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	key := jetty.OutputKey{Job: "bench", Map: 0, Reduce: 0}
	store.Put(key, bytes.Repeat([]byte{7}, 1<<20))
	cli := jetty.NewClient()
	defer cli.Close()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.FetchMapOutput(addr, key); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Real MPI-D library benchmarks

// benchWordCountJob runs the real WordCount job over the in-process world.
func benchWordCountJob(b *testing.B, job mapred.Job, textBytes int) {
	vocab := workload.NewVocabulary(2_000, 3)
	text := workload.NewTextGenerator(vocab, 1.15, 4).BytesOfText(textBytes)
	splits := mapred.SplitText(text, 32<<10)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapred.Run(job, splits, 4); err != nil {
			b.Fatal(err)
		}
	}
}

var benchMapper = mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
	for _, w := range bytes.Fields(line) {
		if err := emit(w, kv.AppendVLong(nil, 1)); err != nil {
			return err
		}
	}
	return nil
})

var benchReducer = mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
	var total int64
	for _, v := range values {
		n, _, err := kv.ReadVLong(v)
		if err != nil {
			return err
		}
		total += n
	}
	return emit(key, kv.AppendVLong(nil, total))
})

func BenchmarkMPIDWordCountInProc(b *testing.B) {
	benchWordCountJob(b, mapred.Job{
		Mapper:      benchMapper,
		Reducer:     benchReducer,
		Combiner:    mapred.CombinerFromReducer(benchReducer),
		NumReducers: 2,
	}, 512<<10)
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)

// runCoreWordCount pushes nPairs hot-key pairs through a 2-rank MPI-D
// instance and returns the sender counters.
func runCoreWordCount(b *testing.B, cfg core.Config, nPairs int) core.Counters {
	var counters core.Counters
	err := mpi.Run(2, func(c *mpi.Comm) error {
		local := cfg
		local.Comm = c
		local.Reducers = []int{0}
		d, err := core.Init(local)
		if err != nil {
			return err
		}
		if d.IsSender() {
			word := []byte("hot")
			for i := 0; i < nPairs; i++ {
				if i%16 == 0 {
					word = []byte(fmt.Sprintf("key-%d", i%4096))
				}
				if err := d.Send(word, kv.AppendVLong(nil, 1)); err != nil {
					return err
				}
			}
			if err := d.Finalize(); err != nil {
				return err
			}
			counters = d.Counters()
			return nil
		}
		for {
			if _, _, err := d.Recv(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
		return d.Finalize()
	})
	if err != nil {
		b.Fatal(err)
	}
	return counters
}

var coreSumCombiner core.CombineFunc = func(_ []byte, values [][]byte) [][]byte {
	var total int64
	for _, v := range values {
		n, _, err := kv.ReadVLong(v)
		if err != nil {
			panic(err)
		}
		total += n
	}
	return [][]byte{kv.AppendVLong(nil, total)}
}

// BenchmarkAblationCombiner quantifies the paper's claim that local
// combination cuts the transmission quantity.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		cfg := core.Config{}
		if on {
			name = "on"
			cfg.Combiner = coreSumCombiner
		}
		b.Run(name, func(b *testing.B) {
			var cs core.Counters
			for i := 0; i < b.N; i++ {
				cs = runCoreWordCount(b, cfg, 50_000)
			}
			b.ReportMetric(float64(cs.BytesSent), "bytes-shuffled")
			b.ReportMetric(float64(cs.PairsCombined), "pairs-combined")
		})
	}
}

// BenchmarkAblationRealignment compares realigned batch transmission
// (large spill buffer -> few contiguous messages) against near-per-pair
// sends (tiny spill buffer), the design choice that lets MPI-D ride MPI's
// large-message bandwidth.
func BenchmarkAblationRealignment(b *testing.B) {
	for _, c := range []struct {
		name  string
		spill int
	}{
		{"per-pair", 1},
		{"realigned-64KB", 64 << 10},
		{"realigned-1MB", 1 << 20},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cs core.Counters
			for i := 0; i < b.N; i++ {
				cs = runCoreWordCount(b, core.Config{SpillThreshold: c.spill}, 20_000)
			}
			b.ReportMetric(float64(cs.MessagesSent), "messages")
		})
	}
}

// BenchmarkAblationSpillThreshold sweeps the hash-table spill threshold.
func BenchmarkAblationSpillThreshold(b *testing.B) {
	for _, spill := range []int{4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKB", spill>>10), func(b *testing.B) {
			var cs core.Counters
			for i := 0; i < b.N; i++ {
				cs = runCoreWordCount(b, core.Config{
					SpillThreshold: spill,
					Combiner:       coreSumCombiner,
				}, 50_000)
			}
			b.ReportMetric(float64(cs.Spills), "spills")
		})
	}
}

// BenchmarkAblationTransport compares the in-process and TCP transports
// under the same MPI-D workload.
func BenchmarkAblationTransport(b *testing.B) {
	body := func(c *mpi.Comm) error {
		d, err := core.Init(core.Config{Comm: c, Reducers: []int{0}, Combiner: coreSumCombiner})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for i := 0; i < 20_000; i++ {
				if err := d.Send([]byte(fmt.Sprintf("k%d", i%512)), kv.AppendVLong(nil, 1)); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		for {
			if _, _, err := d.Recv(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
		return d.Finalize()
	}
	b.Run("inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mpi.Run(2, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := mpi.NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			if err := mpi.RunOn(w, body); err != nil {
				b.Fatal(err)
			}
			w.Close()
		}
	})
}

// BenchmarkAblationPartitionSkew compares the hash-mod partitioner against
// a degenerate all-to-one partitioner across 4 reducers.
func BenchmarkAblationPartitionSkew(b *testing.B) {
	run := func(b *testing.B, part core.PartitionFunc) {
		err := mpi.Run(6, func(c *mpi.Comm) error {
			d, err := core.Init(core.Config{
				Comm:        c,
				Reducers:    []int{0, 1, 2, 3},
				Partitioner: part,
			})
			if err != nil {
				return err
			}
			if d.IsSender() {
				for i := 0; i < 10_000; i++ {
					if err := d.Send([]byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
						return err
					}
				}
				return d.Finalize()
			}
			for {
				if _, _, err := d.Recv(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			return d.Finalize()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil) // default hash-mod
		}
	})
	b.Run("all-to-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, func([]byte, int) int { return 0 })
		}
	})
}

// BenchmarkFigure6Live runs the identical WordCount on the real mini-Hadoop
// engine and the real MPI-D runtime — the live analogue of Figure 6.
func BenchmarkFigure6Live(b *testing.B) {
	var rows []experiments.Figure6LiveRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure6Live([]int64{256 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Ratio(), "mpid/hadoop-live-ratio")
}
