package des

import (
	"testing"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3*time.Second, func() { order = append(order, 3) })
	e.At(1*time.Second, func() { order = append(order, 1) })
	e.At(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestEngineBreaksTiesByScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(2*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(time.Second, func() {})
	})
	e.Run()
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := New()
	ran := false
	e.After(-time.Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("After(-1s): ran=%v now=%v", ran, e.Now())
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		wake = p.Now()
	})
	e.Run()
	if wake != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Second)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: len %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic interleaving at run %d pos %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	e.Go("stuck", func(p *Proc) { sig.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	e.Run()
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := New()
	sig := NewSignal(e)
	woken := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		if woken != 0 {
			t.Errorf("%d waiters woke before Fire", woken)
		}
		sig.Fire()
	})
	e.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestDoneLatch(t *testing.T) {
	e := New()
	d := NewDone(e)
	var sawAt Time
	e.Go("waiter", func(p *Proc) {
		d.Wait(p)
		sawAt = p.Now()
	})
	e.Go("completer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		d.Complete()
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(3 * time.Second)
		d.Wait(p) // already complete: returns immediately
		if p.Now() != 3*time.Second {
			t.Errorf("late waiter delayed to %v", p.Now())
		}
	})
	e.Run()
	if sawAt != 2*time.Second {
		t.Fatalf("waiter resumed at %v, want 2s", sawAt)
	}
}

func TestDoneCompleteTwicePanics(t *testing.T) {
	e := New()
	d := NewDone(e)
	d.Complete()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Complete")
		}
	}()
	d.Complete()
}

func TestWaitAll(t *testing.T) {
	e := New()
	a, b := NewDone(e), NewDone(e)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		WaitAll(p, a, b)
		doneAt = p.Now()
	})
	e.Go("x", func(p *Proc) { p.Sleep(time.Second); a.Complete() })
	e.Go("y", func(p *Proc) { p.Sleep(4 * time.Second); b.Complete() })
	e.Run()
	if doneAt != 4*time.Second {
		t.Fatalf("WaitAll resumed at %v, want 4s", doneAt)
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := New()
	var started Time
	e.GoAt(7*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 7*time.Second {
		t.Fatalf("started at %v, want 7s", started)
	}
}
