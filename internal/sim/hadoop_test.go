package sim

import (
	"testing"

	"github.com/ict-repro/mpid/internal/netmodel"
)

func TestJavaSortSmallJobConsistency(t *testing.T) {
	r := RunHadoop(JavaSort(1*netmodel.GB, 8, 8))
	if r.NumMaps != 16 {
		t.Fatalf("NumMaps = %d, want 16 (1GB / 64MB)", r.NumMaps)
	}
	if r.NumReduces != 16 {
		t.Fatalf("NumReduces = %d, want 16 (proportional)", r.NumReduces)
	}
	if len(r.Maps) != 16 || len(r.Reduces) != 16 {
		t.Fatalf("stats: %d maps, %d reduces", len(r.Maps), len(r.Reduces))
	}
	if r.JobTime <= 0 {
		t.Fatal("JobTime not positive")
	}
	if r.MapPhaseEnd <= 0 || r.MapPhaseEnd > r.JobTime {
		t.Fatalf("MapPhaseEnd = %v outside (0, %v]", r.MapPhaseEnd, r.JobTime)
	}
	for _, m := range r.Maps {
		if m.End <= m.Start {
			t.Fatalf("map %d has non-positive duration", m.Task)
		}
	}
	for _, rd := range r.Reduces {
		if rd.End <= rd.Start || rd.Copy < 0 || rd.Sort <= 0 || rd.Reduce <= 0 {
			t.Fatalf("reduce %d has invalid phases: %+v", rd.Task, rd)
		}
		if got := rd.Copy + rd.Sort + rd.Reduce; got != rd.Duration() {
			t.Fatalf("reduce %d phases %v != duration %v", rd.Task, got, rd.Duration())
		}
	}
	pct := r.CopyPercent()
	if pct <= 0 || pct >= 100 {
		t.Fatalf("CopyPercent = %g", pct)
	}
}

func TestHadoopDeterministic(t *testing.T) {
	a := RunHadoop(JavaSort(1*netmodel.GB, 4, 4))
	b := RunHadoop(JavaSort(1*netmodel.GB, 4, 4))
	if a.JobTime != b.JobTime {
		t.Fatalf("same job, different job times: %v vs %v", a.JobTime, b.JobTime)
	}
}

func TestCopyShareGrowsWithInputSize(t *testing.T) {
	// Table I's headline shape: the copy share rises with input size
	// because fetch count grows as maps x reduces.
	small := RunHadoop(JavaSort(1*netmodel.GB, 8, 8)).CopyPercent()
	large := RunHadoop(JavaSort(16*netmodel.GB, 8, 8)).CopyPercent()
	if large <= small {
		t.Fatalf("copy%% did not grow: %g%% (1GB) vs %g%% (16GB)", small, large)
	}
}

func TestCopyShareInPaperBandSmall(t *testing.T) {
	// Paper Table I, small inputs: 33.9%..47.9% across configs. Allow a
	// generous simulation band.
	for _, cfg := range [][2]int{{4, 2}, {4, 4}, {8, 8}} {
		pct := RunHadoop(JavaSort(1*netmodel.GB, cfg[0], cfg[1])).CopyPercent()
		if pct < 15 || pct > 65 {
			t.Errorf("1GB %d/%d: copy%% = %g, outside [15,65]", cfg[0], cfg[1], pct)
		}
	}
}

func TestFirstWaveReducersBoundedBySlots(t *testing.T) {
	r := RunHadoop(JavaSort(4*netmodel.GB, 8, 8))
	maxFirstWave := 7 * 8 // workers x reduce slots
	if fw := r.FirstWaveCount(); fw > maxFirstWave {
		t.Fatalf("first wave = %d > %d", fw, maxFirstWave)
	}
}

func TestSortStageTiny(t *testing.T) {
	// Paper: average sort stage ~0.0102 s. Measure over every reducer
	// (at 1 GB all reducers are first-wave, so the filtered summary is
	// empty).
	r := RunHadoop(JavaSort(1*netmodel.GB, 8, 8))
	var sum float64
	for _, rd := range r.Reduces {
		sum += rd.Sort.Seconds()
	}
	mean := sum / float64(len(r.Reduces))
	if mean < 0.005 || mean > 0.05 {
		t.Fatalf("sort mean = %gs, want ~0.01s", mean)
	}
}

func TestHadoopWordCountSingleReducer(t *testing.T) {
	r := RunHadoop(HadoopWordCount(1 * netmodel.GB))
	if r.NumReduces != 1 {
		t.Fatalf("NumReduces = %d, want 1 (paper's Fig. 6 setup)", r.NumReduces)
	}
	if r.JobTime <= 0 {
		t.Fatal("JobTime not positive")
	}
}

func TestHadoopWordCountScalesSublinearly(t *testing.T) {
	// Paper Fig. 6: 1 GB -> 49 s, 100 GB -> 2001 s: 100x data, ~41x time.
	// The fixed overheads must make small jobs relatively expensive.
	t1 := RunHadoop(HadoopWordCount(1 * netmodel.GB)).JobTime.Seconds()
	t8 := RunHadoop(HadoopWordCount(8 * netmodel.GB)).JobTime.Seconds()
	if t8 >= 8*t1 {
		t.Fatalf("no fixed-overhead effect: T(8GB)=%g >= 8*T(1GB)=%g", t8, 8*t1)
	}
	if t8 <= t1 {
		t.Fatalf("larger input not slower: %g vs %g", t8, t1)
	}
}

func TestOverSubscribedSlotsContendOnCores(t *testing.T) {
	// 16/16 slots on 8 cores must not be faster than 8/8 for a CPU-heavy
	// job (Table I's right column shows no benefit from oversubscription).
	t88 := RunHadoop(JavaSort(8*netmodel.GB, 8, 8)).JobTime
	t1616 := RunHadoop(JavaSort(8*netmodel.GB, 16, 16)).JobTime
	if t1616 < t88*3/4 {
		t.Fatalf("16/16 (%v) near-linearly faster than 8/8 (%v) despite the core limit", t1616, t88)
	}
}

func TestPartialLastBlock(t *testing.T) {
	// 1 GB + 1 MB: 17 blocks, the last being 1 MB.
	r := RunHadoop(JavaSort(1*netmodel.GB+1*netmodel.MB, 8, 8))
	if r.NumMaps != 17 {
		t.Fatalf("NumMaps = %d, want 17", r.NumMaps)
	}
}

func TestHadoopInvalidInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero input")
		}
	}()
	RunHadoop(HadoopJob{})
}

func TestCopySummaryExcludesFirstWave(t *testing.T) {
	r := RunHadoop(JavaSort(4*netmodel.GB, 8, 8))
	total := len(r.Reduces)
	if got := r.CopySummary().Count() + r.FirstWaveCount(); got != total {
		t.Fatalf("summary(%d) + firstwave(%d) != reduces(%d)",
			r.CopySummary().Count(), r.FirstWaveCount(), total)
	}
}
