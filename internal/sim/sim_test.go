package sim

import (
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

func TestTestbedMatchesPaper(t *testing.T) {
	if numNodes != 8 {
		t.Errorf("numNodes = %d, want 8", numNodes)
	}
	if coresPerNode != 8 {
		t.Errorf("coresPerNode = %d, want 8 (2x quad-core)", coresPerNode)
	}
	if bw := netmodel.MPI().PeakBandwidth(); bw < 100e6 || bw > 125e6 {
		t.Errorf("GigE NIC bandwidth = %g, want GigE-class", bw)
	}
}

func TestComputeOccupiesCore(t *testing.T) {
	eng := des.New()
	n := newTestbed(eng, netmodel.MPI()).nodes[0]
	var ends []des.Time
	// Twice as many 1 s jobs as cores: half end at 1 s, half at 2 s.
	for i := 0; i < 2*coresPerNode; i++ {
		eng.Go("job", func(p *des.Proc) {
			n.compute(p, 100, 100) // 1 second
			ends = append(ends, p.Now())
		})
	}
	eng.Run()
	for i, end := range ends {
		want := time.Second
		if i >= coresPerNode {
			want = 2 * time.Second
		}
		if end != want {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestComputeZeroWorkReturnsImmediately(t *testing.T) {
	eng := des.New()
	n := newTestbed(eng, netmodel.MPI()).nodes[0]
	eng.Go("job", func(p *des.Proc) {
		n.compute(p, 0, 100)
		n.compute(p, 100, 0)
		if p.Now() != 0 {
			t.Errorf("zero work advanced clock to %v", p.Now())
		}
	})
	eng.Run()
}

func TestTransferHoldsBothEnds(t *testing.T) {
	eng := des.New()
	tb := newTestbed(eng, netmodel.MPI())
	bytes := int64(netmodel.MPI().PeakBandwidth()) // 1 s alone on a NIC
	var ends []des.Time
	// Two senders into one receiver: its in-link is the bottleneck, so
	// both transfers take 2 s after the latency, not 1 s.
	for _, from := range []int{0, 2} {
		eng.Go("tx", func(p *des.Proc) {
			tb.transfer(p, tb.nodes[from], tb.nodes[1], bytes)
			ends = append(ends, p.Now())
		})
	}
	eng.Run()
	want := tb.netLatency + 2*time.Second
	if len(ends) != 2 || ends[0] != want || ends[1] != want {
		t.Fatalf("transfers ended at %v, want %v each", ends, want)
	}
}

func TestTransferLatencyApplied(t *testing.T) {
	eng := des.New()
	tb := newTestbed(eng, netmodel.MPI())
	var end des.Time
	eng.Go("tx", func(p *des.Proc) {
		tb.transfer(p, tb.nodes[0], tb.nodes[1], int64(netmodel.MPI().PeakBandwidth()))
		end = p.Now()
	})
	eng.Run()
	if want := netmodel.MPI().Latency(0) + time.Second; end != want {
		t.Fatalf("end = %v, want %v (1 s wire + latency)", end, want)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	eng := des.New()
	tb := newTestbed(eng, netmodel.MPI())
	eng.Go("tx", func(p *des.Proc) {
		tb.transfer(p, tb.nodes[0], tb.nodes[0], 1<<30)
		if p.Now() != 0 {
			t.Errorf("local transfer took %v", p.Now())
		}
	})
	eng.Run()
}

func TestSeekEquivalentBytes(t *testing.T) {
	// One seek ~ 9 ms at 90 MB/s ~ 810 KB.
	one := seekEquivalentBytes(1)
	if one < 500_000 || one > 1_000_000 {
		t.Errorf("seek equivalent = %d bytes", one)
	}
	if seekEquivalentBytes(10) != 10*one {
		t.Error("seek equivalent not linear")
	}
	if seekEquivalentBytes(0) != 0 || seekEquivalentBytes(-1) != 0 {
		t.Error("non-positive accesses should cost nothing")
	}
}

func TestRandomReadSlowerThanStream(t *testing.T) {
	read := func(accesses int) des.Time {
		eng := des.New()
		n := newTestbed(eng, netmodel.MPI()).nodes[0]
		var end des.Time
		eng.Go("read", func(p *des.Proc) {
			if accesses == 0 {
				n.readStream(p, 64<<20)
			} else {
				n.readRandom(p, 64<<20, accesses)
			}
			end = p.Now()
		})
		eng.Run()
		return end
	}
	if stream, random := read(0), read(2000); random < 2*stream {
		t.Errorf("random read %v not much slower than stream %v", random, stream)
	}
}

func TestInvalidFabricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a fabric with no bandwidth")
		}
	}()
	newTestbed(des.New(), &netmodel.AlphaBeta{ModelName: "dead"})
}
