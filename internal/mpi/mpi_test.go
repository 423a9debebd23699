package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		case 1:
			data, st, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "hello" || st.Source != 0 || st.Tag != 7 || st.Size != 5 {
				return fmt.Errorf("got %q %+v", data, st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderingSamePair(t *testing.T) {
	// Non-overtaking: messages with matching envelopes arrive in send order.
	const n = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order: %d", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvByTagSelectsAcrossQueue(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second"))
		}
		// Receive tag 2 first even though tag 1 arrived earlier.
		data, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(data) != "second" {
			return fmt.Errorf("tag-2 recv got %q", data)
		}
		data, _, err = c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(data) != "first" {
			return fmt.Errorf("tag-1 recv got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceWildcard(t *testing.T) {
	// The reducer-side pattern from the paper: wildcard reception from any
	// mapper (§IV.A "wildcard reception style").
	const senders = 7
	err := Run(senders+1, func(c *Comm) error {
		if c.Rank() > 0 {
			return c.Send(0, 5, []byte{byte(c.Rank())})
		}
		seen := make(map[int]bool)
		for i := 0; i < senders; i++ {
			data, st, err := c.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			if int(data[0]) != st.Source {
				return fmt.Errorf("payload %d != source %d", data[0], st.Source)
			}
			if seen[st.Source] {
				return fmt.Errorf("duplicate source %d", st.Source)
			}
			seen[st.Source] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnyTagWildcard(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 42, []byte("x"))
		}
		_, st, err := c.Recv(0, AnyTag)
		if err != nil {
			return err
		}
		if st.Tag != 42 {
			return fmt.Errorf("tag = %d", st.Tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c := w.Comm(0)
	if err := c.Send(5, 1, nil); err == nil {
		t.Error("Send to invalid rank succeeded")
	}
	if err := c.Send(1, -3, nil); err == nil {
		t.Error("Send with negative tag succeeded")
	}
	if err := c.Send(1, MaxUserTag+1, nil); err == nil {
		t.Error("Send with reserved tag succeeded")
	}
	if _, _, err := c.Recv(5, 1); err == nil {
		t.Error("Recv from invalid rank succeeded")
	}
	if _, _, err := c.Recv(1, collTagBase); err == nil {
		t.Error("Recv with reserved tag succeeded")
	}
}

func TestWorldCloseUnblocksRecv(t *testing.T) {
	w := NewWorld(2)
	errc := make(chan error, 1)
	go func() {
		_, _, err := w.Comm(1).Recv(0, 1)
		errc <- err
	}()
	waitForWaiter(t, w.eps[1])
	w.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrWorldClosed) {
			t.Fatalf("err = %v, want ErrWorldClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// waitForWaiter returns once a receiver is blocked on ep's cond.
func waitForWaiter(t *testing.T, ep *endpoint) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		ep.mu.Lock()
		n := ep.nwait
		ep.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never blocked")
		}
		runtime.Gosched()
	}
}

// TestEndpointDrainsLongQueueInOrder: receiving from the head of a long
// unexpected-message queue costs O(1), so 200 000 queued messages drain
// in FIFO order well inside the deadline; a receive that copied the queue
// would take minutes.
func TestEndpointDrainsLongQueueInOrder(t *testing.T) {
	const n = 200_000
	w := NewWorld(2)
	defer w.Close()
	src, dst := w.Comm(0), w.Comm(1)
	for i := 0; i < n; i++ {
		if err := src.Send(1, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		data, _, err := dst.Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("message %d = %v, want [%d]", i, data, byte(i))
		}
		if i%4096 == 0 && time.Now().After(deadline) {
			t.Fatalf("drained only %d of %d messages in 10 s", i, n)
		}
	}
	ep := w.eps[1]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.head != 0 || len(ep.queue) != 0 {
		t.Fatalf("drained queue: head %d, len %d; want both 0", ep.head, len(ep.queue))
	}
}

// TestEndpointMiddleRemovalKeepsOrder: taking a message from behind the
// head, then draining, returns every other message in arrival order, and a
// queue that keeps its head busy reuses its array instead of growing it.
func TestEndpointMiddleRemovalKeepsOrder(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	src, dst := w.Comm(0), w.Comm(1)
	for i := 0; i < 8; i++ {
		tag := 1
		if i == 5 {
			tag = 2
		}
		if err := src.Send(1, tag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(tag int) byte {
		t.Helper()
		data, _, err := dst.Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		return data[0]
	}
	if got := recv(1); got != 0 {
		t.Fatalf("first tag-1 message = %d, want 0", got)
	}
	if got := recv(2); got != 5 {
		t.Fatalf("tag-2 message = %d, want 5", got)
	}
	for _, want := range []byte{1, 2, 3, 4, 6, 7} {
		if got := recv(1); got != want {
			t.Fatalf("tag-1 message = %d, want %d", got, want)
		}
	}
	// One message always queued, one received per send: the array stays
	// at the size the first sends grew it to.
	if err := src.Send(1, 1, []byte{0}); err != nil {
		t.Fatal(err)
	}
	ep := w.eps[1]
	for i := 0; i < 10_000; i++ {
		if err := src.Send(1, 1, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if got := recv(1); got != byte(i) {
			t.Fatalf("steady message %d = %d, want %d", i, got, byte(i))
		}
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if c := cap(ep.queue); c > 16 {
		t.Fatalf("queue array grew to %d slots with at most 2 live messages", c)
	}
}

func TestRunPropagatesErrorAndUnblocksPeers(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		// Peers block forever unless the world is torn down.
		_, _, err := c.Recv(0, 1)
		if !errors.Is(err, ErrWorldClosed) {
			return fmt.Errorf("peer unblocked with %v", err)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run err = %v, want sentinel", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("rank 1 exploded")
		}
		_, _, err := c.Recv(1, 1)
		_ = err // unblocked by teardown
		return nil
	})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
}

// TestAbortCause: an outside Abort unblocks ranks with ErrWorldClosed but
// RunOn reports the abort's reason, on every transport; the first Close or
// Abort fixes the cause for good.
func TestAbortCause(t *testing.T) {
	reason := errors.New("caller gave up")
	worlds := map[string]func() *World{
		"chan": func() *World { return NewWorld(3) },
		"ring": func() *World { return NewRingWorld(3) },
		"tcp": func() *World {
			w, err := NewTCPWorld(3)
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	for name, newWorld := range worlds {
		t.Run(name, func(t *testing.T) {
			w := newWorld()
			if w.Cause() != nil {
				t.Fatalf("open world has cause %v", w.Cause())
			}
			var blocked sync.WaitGroup
			blocked.Add(w.Size())
			go func() {
				blocked.Wait() // every rank is at (or one step from) its Recv
				w.Abort(reason)
			}()
			err := RunOn(w, func(c *Comm) error {
				blocked.Done()
				_, _, err := c.Recv(AnySource, 1)
				if !errors.Is(err, ErrWorldClosed) {
					return fmt.Errorf("rank %d unblocked with %v", c.Rank(), err)
				}
				return err
			})
			if !errors.Is(err, reason) || errors.Is(err, ErrWorldClosed) {
				t.Fatalf("RunOn = %v, want the abort's reason", err)
			}
			w.Close()
			w.Abort(errors.New("too late"))
			if !errors.Is(w.Cause(), reason) {
				t.Fatalf("cause after later Close/Abort = %v, want the first", w.Cause())
			}
		})
	}
}

// TestRunReportsFirstFailureInTime: rank 2 fails while ranks 0 and 1 are
// blocked on it; they unblock with ErrWorldClosed and may wrap it as they
// like — RunOn still returns rank 2's error, not the lowest rank's.
func TestRunReportsFirstFailureInTime(t *testing.T) {
	sentinel := errors.New("rank 2 failed first")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		_, _, err := c.Recv(2, 1)
		return fmt.Errorf("rank %d gave up: %v", c.Rank(), err) // %v: no longer Is ErrWorldClosed
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run err = %v, want rank 2's", err)
	}
}

// TestRunRankGoexit: a rank that leaves through runtime.Goexit (t.FailNow
// inside a rank does) counts as failed, so its peers are not left blocked.
func TestRunRankGoexit(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			runtime.Goexit()
		}
		_, _, err := c.Recv(1, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 exited without returning") {
		t.Fatalf("Run err = %v, want rank 1's exit", err)
	}
}

// --------------------------------------------------------------------------
// Barrier

func worldSizes() []int { return []int{1, 2, 3, 4, 7, 8} }

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range worldSizes() {
		var entered int32
		err := Run(n, func(c *Comm) error {
			atomic.AddInt32(&entered, 1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := atomic.LoadInt32(&entered); got != int32(n) {
				return fmt.Errorf("rank %d passed barrier with %d/%d entered", c.Rank(), got, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestConsecutiveCollectivesDoNotInterfere: back-to-back barriers, the only
// collective left, each use their own reserved tag, so a fast rank's
// notification for barrier i+1 is never taken for barrier i — no rank leaves
// barrier i before every rank has entered it.
func TestConsecutiveCollectivesDoNotInterfere(t *testing.T) {
	const n, rounds = 4, 50
	var entered [rounds]atomic.Int32
	err := Run(n, func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			entered[i].Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := entered[i].Load(); got != n {
				return fmt.Errorf("rank %d left barrier %d with %d/%d entered", c.Rank(), i, got, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesMixedWithPointToPoint(t *testing.T) {
	// Collective traffic on reserved tags must not match user Recvs.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []byte("user")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			data, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(data) != "user" {
				return fmt.Errorf("got %q", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
