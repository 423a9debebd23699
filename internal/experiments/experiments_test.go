package experiments

import (
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/netmodel"
)

func TestSizeRanges(t *testing.T) {
	small := Small.Sizes()
	if small[0] != 1 || small[len(small)-1] != 1024 {
		t.Fatalf("small range = %v", small)
	}
	medium := Medium.Sizes()
	if medium[0] != 1024 || medium[len(medium)-1] != 1<<20 {
		t.Fatalf("medium range = %v", medium)
	}
	large := Large.Sizes()
	if large[0] != 1<<20 || large[len(large)-1] != 64<<20 {
		t.Fatalf("large range = %v", large)
	}
}

func TestSizeRangeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SizeRange("bogus").Sizes()
}

func TestFigure2ModelReproducesPaperRatios(t *testing.T) {
	rows, err := Figure2(Small, Model)
	if err != nil {
		t.Fatal(err)
	}
	// 1 B ratio ~2.49x, growing with size (paper: smallest gap at 1 B).
	if r := rows[0].Ratio(); r < 2 || r > 3 {
		t.Errorf("1B ratio = %g, want ~2.49", r)
	}
	last := rows[len(rows)-1] // 1 KB
	if r := last.Ratio(); r < 12 || r > 18 {
		t.Errorf("1KB ratio = %g, want ~15.1", r)
	}
	if rows[0].PaperMPI == 0 || last.PaperRPC == 0 {
		t.Error("paper anchors not attached at 1B / 1KB")
	}

	med, err := Figure2(Medium, Model)
	if err != nil {
		t.Fatal(err)
	}
	oneMB := med[len(med)-1]
	if r := oneMB.Ratio(); r < 100 || r > 140 {
		t.Errorf("1MB ratio = %g, want ~123", r)
	}
}

func TestFigure2RowsCoverEverySize(t *testing.T) {
	for _, panel := range []SizeRange{Small, Medium, Large} {
		rows, err := Figure2(panel, Model)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(panel.Sizes()) {
			t.Errorf("%s: %d rows, want %d", panel, len(rows), len(panel.Sizes()))
		}
		for _, r := range rows {
			if r.MPI <= 0 || r.RPC <= 0 {
				t.Errorf("%s size %d: non-positive latency", panel, r.Size)
			}
		}
	}
}

func TestRenderFigure2(t *testing.T) {
	rows, err := Figure2(Small, Model)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure2(Small, Model, rows)
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "HadoopRPC") {
		t.Errorf("render missing headers:\n%s", out)
	}
}

func TestFigure3ModelShape(t *testing.T) {
	rows, err := Figure3(Model)
	if err != nil {
		t.Fatal(err)
	}
	rpc, jetty, mpiPeak, raw := PeakBandwidths(rows)
	if rpc/1e6 < 0.8 || rpc/1e6 > 1.6 {
		t.Errorf("RPC peak = %g MB/s, want ~1.4", rpc/1e6)
	}
	if mpiPeak <= jetty {
		t.Error("MPI peak should beat Jetty by 2-3%")
	}
	if (mpiPeak-jetty)/jetty > 0.06 {
		t.Errorf("MPI-Jetty gap = %g, want small", (mpiPeak-jetty)/jetty)
	}
	if mpiPeak/rpc < 60 {
		t.Errorf("MPI/RPC peak ratio = %g, want ~100x", mpiPeak/rpc)
	}
	if raw <= 0 {
		t.Error("RawTCP series empty")
	}
	out := RenderFigure3(Model, rows)
	if !strings.Contains(out, "peaks:") {
		t.Errorf("render missing peaks:\n%s", out)
	}
}

func TestFigure1SmallScale(t *testing.T) {
	r := Figure1(2 * netmodel.GB)
	if r.NumMaps != 32 {
		t.Fatalf("NumMaps = %d", r.NumMaps)
	}
	out := RenderFigure1(r)
	for _, want := range []string{"Figure 1", "copy", "sort", "reduce", "stragglers"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1PaperScaleUsesPaperReduceCount(t *testing.T) {
	p := Figure1Params(150 * netmodel.GB)
	if p.NumReduceTasks != 2345 {
		t.Fatalf("NumReduceTasks = %d, want 2345", p.NumReduceTasks)
	}
}

func TestTable1SweepSmall(t *testing.T) {
	cells := Table1(3)
	if len(cells) != 8 { // 2 sizes x 4 configs
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	for _, c := range cells {
		if c.CopyPct <= 0 || c.CopyPct >= 100 {
			t.Errorf("%dGB %s: copy%% = %g", c.SizeGB, c.Config(), c.CopyPct)
		}
		if c.PaperPct == 0 {
			t.Errorf("%dGB %s: paper value missing", c.SizeGB, c.Config())
		}
	}
	out := RenderTable1(cells)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "1GB") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure6SweepSmall(t *testing.T) {
	rows := Figure6(5)
	if len(rows) != 3 { // 1, 2, 5 GB
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.MPID >= r.Hadoop {
			t.Errorf("%dGB: MPI-D %g not faster than Hadoop %g", r.SizeGB, r.MPID, r.Hadoop)
		}
	}
	// The 1 GB row carries the paper anchors.
	if rows[0].PaperHadoop != 49 || rows[0].PaperMPID != 3.9 {
		t.Errorf("1GB paper anchors = %g/%g", rows[0].PaperHadoop, rows[0].PaperMPID)
	}
	out := RenderFigure6(rows)
	if !strings.Contains(out, "Figure 6") {
		t.Errorf("render:\n%s", out)
	}
}

func TestPaperReferenceTables(t *testing.T) {
	if _, _, ok := PaperLatency(1); !ok {
		t.Error("1B paper latency missing")
	}
	if _, _, ok := PaperLatency(3); ok {
		t.Error("3B paper latency should be absent")
	}
	if PaperTable1[150]["8/8"] != 82.7 {
		t.Errorf("Table I anchor wrong: %g", PaperTable1[150]["8/8"])
	}
	if _, _, r, ok := PaperFigure6(10); !ok || r != 0.48 {
		t.Errorf("Fig6 10GB ratio = %g, %v", r, ok)
	}
	if _, _, _, ok := PaperFigure6(7); ok {
		t.Error("Fig6 7GB should be absent")
	}
	if Mode(0).String() != "model" || Live.String() != "live" {
		t.Error("mode names wrong")
	}
}

func TestFigure2LiveOrdering(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live timing assertion; skipped in -short and race builds")
	}
	// Live on loopback: for bulk messages, RPC's serialize-into-the-frame
	// copy amplification must cost real time against MPI's framed stream
	// (at tiny sizes Go's loopback costs swamp the difference, unlike the
	// paper's JVM, where RPC loses at every size).
	rows, err := Figure2(Medium, Live)
	if err != nil {
		t.Fatal(err)
	}
	slower, bulk := 0, 0
	for _, r := range rows {
		if r.Size < 64<<10 {
			continue
		}
		bulk++
		if r.RPC > r.MPI {
			slower++
		}
	}
	if bulk == 0 || slower < bulk*2/3 {
		t.Errorf("RPC slower in only %d/%d bulk sizes", slower, bulk)
	}
}

func TestFigure3LiveRPCCollapse(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live timing assertion; skipped in -short and race builds")
	}
	bench, err := newLiveBandwidthBench("")
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()
	// At a small packet size, call-per-packet RPC bandwidth must collapse
	// against the streaming MPI framing — the paper's Figure 3 mechanism.
	// (RPC vs Go's net/http at tiny packets is load-sensitive noise, so
	// the Jetty comparison runs at a bulk packet size instead.) One
	// measurement on a loaded machine can catch a scheduling stall on
	// either side, so a failed comparison re-measures before failing.
	const retries = 3
	for attempt := 1; ; attempt++ {
		row, err := bench.measure(1024)
		if err != nil {
			t.Fatal(err)
		}
		if row.RPC < row.MPI {
			break
		}
		if attempt == retries {
			t.Errorf("live RPC bandwidth %g >= MPI %g at 1KB packets (%d attempts)", row.RPC, row.MPI, attempt)
			break
		}
	}
	for attempt := 1; ; attempt++ {
		bulk, err := bench.measure(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if bulk.RPC < bulk.Jetty {
			break
		}
		if attempt == retries {
			t.Errorf("live RPC bandwidth %g >= Jetty %g at 64KB packets (%d attempts)", bulk.RPC, bulk.Jetty, attempt)
			break
		}
	}
}

func TestExtensionInterconnects(t *testing.T) {
	rows := ExtensionInterconnects(4)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := interconnectSanity(rows); err != nil {
		t.Fatal(err)
	}
	if rows[0].Name != "MPICH2" || rows[2].Name != "MPI-InfiniBand" {
		t.Fatalf("fabric order: %q, %q, %q", rows[0].Name, rows[1].Name, rows[2].Name)
	}
	out := RenderInterconnects(rows)
	if !strings.Contains(out, "InfiniBand") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure6LiveEnginesAgreeAndMPIDWins(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("live timing assertion; skipped in -short and race builds")
	}
	rows, err := Figure6Live([]int64{256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Hadoop <= 0 || r.MPID <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		// The live analogue of the paper's claim: the MPI-D path beats the
		// Hadoop path on the identical job.
		if r.MPID >= r.Hadoop {
			t.Errorf("%dKB: MPI-D %v not faster than Hadoop %v",
				r.SizeBytes>>10, r.MPID, r.Hadoop)
		}
	}
	out := RenderFigure6Live(rows)
	if !strings.Contains(out, "live") {
		t.Errorf("render:\n%s", out)
	}
}
