package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/simulated_figures.golden")

// TestSimulatedFiguresExact pins every simulated job `mpid-report -quick`
// runs — Figure 1 at 4 GB, Table I up to 9 GB, Figure 6 up to 10 GB and
// the interconnect projection at 10 GB — plus the 256 KiB Hadoop WordCount
// Figure1LiveAt compares against, to the virtual nanosecond. A simulator
// refactor that claims to change no figure must leave this table as it is.
func TestSimulatedFiguresExact(t *testing.T) {
	var b strings.Builder
	hadoop := func(name string, jobTime, mapPhaseEnd des.Time, maps, reduces int, copyPct float64) {
		fmt.Fprintf(&b, "%s job=%d mapEnd=%d maps=%d reduces=%d copy=%v\n",
			name, jobTime, mapPhaseEnd, maps, reduces, copyPct)
	}

	f1 := Figure1(4 * netmodel.GB)
	hadoop("figure1 javasort 4GB 8/8", f1.JobTime, f1.MapPhaseEnd, f1.NumMaps, f1.NumReduces, f1.CopyPercent())
	for _, gb := range []int64{1, 3, 9} {
		for _, cfg := range Table1Configs {
			r := javaSort(gb*netmodel.GB, cfg[0], cfg[1])
			hadoop(fmt.Sprintf("table1 javasort %dGB %d/%d", gb, cfg[0], cfg[1]),
				r.JobTime, r.MapPhaseEnd, r.NumMaps, r.NumReduces, r.CopyPercent())
		}
	}
	for _, gb := range []int64{1, 2, 5, 10} {
		h := hadoopWordCount(gb * netmodel.GB)
		hadoop(fmt.Sprintf("figure6 hadoop wordcount %dGB", gb),
			h.JobTime, h.MapPhaseEnd, h.NumMaps, h.NumReduces, h.CopyPercent())
		m := mpidWordCount(gb*netmodel.GB, netmodel.MPI())
		fmt.Fprintf(&b, "figure6 mpid wordcount %dGB job=%d mapEnd=%d\n", gb, m.JobTime, m.MapEnd)
	}
	for _, f := range []netmodel.Model{netmodel.MPI(), netmodel.TenGigE(), netmodel.InfiniBand()} {
		m := mpidWordCount(10*netmodel.GB, f)
		fmt.Fprintf(&b, "interconnect mpid wordcount 10GB %s job=%d mapEnd=%d\n", f.Name(), m.JobTime, m.MapEnd)
	}
	live := hadoopWordCount(256 << 10)
	hadoop("figure1live hadoop wordcount 256KiB", live.JobTime, live.MapPhaseEnd, live.NumMaps, live.NumReduces, live.CopyPercent())

	path := filepath.Join("testdata", "simulated_figures.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d:\n%s", len(gotLines), len(wantLines), b.String())
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
