package sim

import (
	"testing"

	"github.com/ict-repro/mpid/internal/netmodel"
)

func TestMPIDWordCountConsistency(t *testing.T) {
	r := RunMPID(MPIDWordCount(1*netmodel.GB), netmodel.MPI())
	if len(r.Mappers) != 49 {
		t.Fatalf("mappers = %d, want 49", len(r.Mappers))
	}
	if r.JobTime <= 0 || r.MapEnd <= 0 || r.MapEnd > r.JobTime {
		t.Fatalf("JobTime=%v MapEnd=%v", r.JobTime, r.MapEnd)
	}
	var read int64
	for _, m := range r.Mappers {
		if m.End <= m.Start {
			t.Fatalf("mapper %d non-positive duration", m.Rank)
		}
		read += m.BytesRead
	}
	if read != 1*netmodel.GB {
		t.Fatalf("mappers read %d bytes, want %d", read, 1*netmodel.GB)
	}
	if r.BytesShuffle <= 0 || r.BytesShuffle >= 1*netmodel.GB {
		t.Fatalf("BytesShuffle = %d, want in (0, input)", r.BytesShuffle)
	}
}

func TestMPIDDeterministic(t *testing.T) {
	a := RunMPID(MPIDWordCount(1*netmodel.GB), netmodel.MPI())
	b := RunMPID(MPIDWordCount(1*netmodel.GB), netmodel.MPI())
	if a.JobTime != b.JobTime {
		t.Fatalf("nondeterministic: %v vs %v", a.JobTime, b.JobTime)
	}
}

func TestMPIDScalesWithInput(t *testing.T) {
	t1 := RunMPID(MPIDWordCount(1*netmodel.GB), netmodel.MPI()).JobTime.Seconds()
	t4 := RunMPID(MPIDWordCount(4*netmodel.GB), netmodel.MPI()).JobTime.Seconds()
	if t4 <= t1 {
		t.Fatalf("T(4GB)=%g <= T(1GB)=%g", t4, t1)
	}
	// Pre-spawned processes: far less fixed overhead than Hadoop, so
	// scaling should be closer to linear than Hadoop's.
	if t4 > 6*t1 {
		t.Fatalf("superlinear scaling: %g vs %g", t4, t1)
	}
}

func TestFasterThanHadoopAtAllScales(t *testing.T) {
	// Figure 6's headline: the MPI-D simulation beats Hadoop, dramatically
	// at 1 GB (paper: 8%) and moderately at larger scale (48-56%).
	for _, gb := range []int64{1, 4, 10} {
		h := RunHadoop(HadoopWordCount(gb * netmodel.GB)).JobTime.Seconds()
		m := RunMPID(MPIDWordCount(gb*netmodel.GB), netmodel.MPI()).JobTime.Seconds()
		if m >= h {
			t.Errorf("%dGB: MPI-D (%gs) not faster than Hadoop (%gs)", gb, m, h)
		}
	}
}

func TestSpeedupRatioGrowsWithScale(t *testing.T) {
	// Paper: ratio MPI-D/Hadoop rises 8% -> 48% -> 56% from 1 to 100 GB
	// (the advantage is largest on small jobs, where Hadoop's fixed
	// overheads dominate).
	ratio := func(gb int64) float64 {
		h := RunHadoop(HadoopWordCount(gb * netmodel.GB)).JobTime.Seconds()
		m := RunMPID(MPIDWordCount(gb*netmodel.GB), netmodel.MPI()).JobTime.Seconds()
		return m / h
	}
	r1, r10 := ratio(1), ratio(10)
	if r1 >= r10 {
		t.Fatalf("ratio did not grow with scale: %g (1GB) vs %g (10GB)", r1, r10)
	}
	if r1 > 0.5 {
		t.Errorf("1GB ratio = %g, want well under 0.5 (paper: 0.08)", r1)
	}
	if r10 < 0.2 || r10 > 0.9 {
		t.Errorf("10GB ratio = %g, want in [0.2,0.9] (paper: 0.48)", r10)
	}
}

func TestMPIDInvalidInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero input")
		}
	}()
	RunMPID(Job{}, netmodel.MPI())
}

func TestUnevenShareDistribution(t *testing.T) {
	// Input not divisible by mapper count: every byte still processed.
	r := RunMPID(MPIDWordCount(netmodel.GB+17), netmodel.MPI())
	var read int64
	for _, m := range r.Mappers {
		read += m.BytesRead
	}
	if read != netmodel.GB+17 {
		t.Fatalf("read %d, want %d", read, netmodel.GB+17)
	}
}
