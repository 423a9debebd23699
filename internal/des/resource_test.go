package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceLimitsConcurrency(t *testing.T) {
	e := New()
	r := NewResource(e, "slots", 2)
	var maxActive, active int
	for i := 0; i < 6; i++ {
		e.Go("worker", func(p *Proc) {
			r.Acquire(p, 1)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(time.Second)
			active--
			r.Release(1)
		})
	}
	e.Run()
	if maxActive != 2 {
		t.Fatalf("max concurrent = %d, want 2", maxActive)
	}
	// 6 workers, 2 slots, 1s each: finishes at 3s.
	if e.Now() != 3*time.Second {
		t.Fatalf("finished at %v, want 3s", e.Now())
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.GoAt(Time(i)*time.Millisecond, "w", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release(1)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("admission not FIFO: %v", order)
		}
	}
}

func TestResourceNoOvertaking(t *testing.T) {
	// A waiter needing 2 units must not be overtaken by a later waiter
	// needing 1, even when 1 unit is free.
	e := New()
	r := NewResource(e, "r", 2)
	var order []string
	e.Go("hog", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1)
	})
	e.GoAt(time.Second, "big", func(p *Proc) {
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	e.GoAt(2*time.Second, "small", func(p *Proc) {
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("overtaking occurred: %v", order)
	}
}

func TestResourceAcquireTooMuchPanics(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	e.Go("greedy", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic acquiring beyond capacity")
			}
		}()
		r.Acquire(p, 2)
	})
	func() {
		defer func() { recover() }() // process panic propagates; absorb
		e.Run()
	}()
}

func TestResourceUse(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	var end Time
	e.Go("a", func(p *Proc) { r.Use(p, 1, 2*time.Second) })
	e.Go("b", func(p *Proc) {
		r.Use(p, 1, 2*time.Second)
		end = p.Now()
	})
	e.Run()
	if end != 4*time.Second {
		t.Fatalf("second Use finished at %v, want 4s", end)
	}
}

func TestLinkSingleTransferTime(t *testing.T) {
	e := New()
	l := NewLink(e, "nic", 100) // 100 B/s
	var end Time
	e.Go("tx", func(p *Proc) {
		l.Transfer(p, 500)
		end = p.Now()
	})
	e.Run()
	if end != 5*time.Second {
		t.Fatalf("500 B at 100 B/s finished at %v, want 5s", end)
	}
	if l.BytesMoved() != 500 {
		t.Fatalf("BytesMoved = %d, want 500", l.BytesMoved())
	}
}

func TestLinkFairSharing(t *testing.T) {
	// Two equal transfers started together share the link and finish
	// together in twice the solo time.
	e := New()
	l := NewLink(e, "nic", 100)
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Go("tx", func(p *Proc) {
			l.Transfer(p, 500)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	for _, end := range ends {
		if end != 10*time.Second {
			t.Fatalf("shared transfer finished at %v, want 10s", end)
		}
	}
}

func TestLinkLateJoinerSlowsEarlier(t *testing.T) {
	// T1 moves 1000 B solo for 5 s (500 B done), then T2 (250 B) joins.
	// They share 50 B/s each; T2 finishes at 5+5=10 s; T1 then has 250 B
	// left at full rate: 10+2.5 = 12.5 s.
	e := New()
	l := NewLink(e, "nic", 100)
	var t1End, t2End Time
	e.Go("t1", func(p *Proc) {
		l.Transfer(p, 1000)
		t1End = p.Now()
	})
	e.GoAt(5*time.Second, "t2", func(p *Proc) {
		l.Transfer(p, 250)
		t2End = p.Now()
	})
	e.Run()
	if t2End != 10*time.Second {
		t.Fatalf("t2 finished at %v, want 10s", t2End)
	}
	want := 12*time.Second + 500*time.Millisecond
	if diff := (t1End - want); diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("t1 finished at %v, want ~%v", t1End, want)
	}
}

func TestLinkZeroByteTransferCompletesImmediately(t *testing.T) {
	e := New()
	l := NewLink(e, "nic", 100)
	var end Time
	e.Go("tx", func(p *Proc) {
		l.Transfer(p, 0)
		end = p.Now()
	})
	e.Run()
	if end != 0 {
		t.Fatalf("zero-byte transfer took %v", end)
	}
}

func TestLinkStartWaitAllConcurrent(t *testing.T) {
	// One process driving two concurrent transfers via Start/WaitAll gets
	// fair-shared timing, not sequential timing.
	e := New()
	l := NewLink(e, "nic", 100)
	var end Time
	e.Go("driver", func(p *Proc) {
		a := l.Start(500)
		b := l.Start(500)
		WaitAll(p, a, b)
		end = p.Now()
	})
	e.Run()
	if end != 10*time.Second {
		t.Fatalf("concurrent pair finished at %v, want 10s", end)
	}
}

func TestLinkManyTransfersConserveBytes(t *testing.T) {
	e := New()
	l := NewLink(e, "nic", 1e6)
	const n = 50
	var total int64
	for i := 1; i <= n; i++ {
		sz := int64(i * 1000)
		total += sz
		e.GoAt(Time(i)*time.Millisecond, "tx", func(p *Proc) {
			l.Transfer(p, sz)
		})
	}
	e.Run()
	if l.BytesMoved() != total {
		t.Fatalf("BytesMoved = %d, want %d", l.BytesMoved(), total)
	}
	if l.ActiveTransfers() != 0 {
		t.Fatalf("ActiveTransfers = %d after Run", l.ActiveTransfers())
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1, 128.5, 1e-9} {
		got := FromSeconds(s).Seconds()
		if got < s || got > s+1e-8 {
			t.Fatalf("FromSeconds(%g).Seconds() = %g", s, got)
		}
	}
	if FromSeconds(-1) != 0 {
		t.Fatal("negative seconds should clamp to 0")
	}
}

func TestLinkConservationQuickProperty(t *testing.T) {
	// quick.Check: arbitrary transfer sizes and start times always
	// conserve bytes and drain the link.
	f := func(sizes []uint16, starts []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		e := New()
		l := NewLink(e, "q", 1e4)
		var want int64
		for i, s := range sizes {
			n := int64(s) + 1
			want += n
			var at Time
			if i < len(starts) {
				at = Time(starts[i]) * time.Millisecond
			}
			e.GoAt(at, "tx", func(p *Proc) { l.Transfer(p, n) })
		}
		e.Run()
		return l.BytesMoved() == want && l.ActiveTransfers() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
