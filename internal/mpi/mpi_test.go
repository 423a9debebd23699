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
	time.Sleep(10 * time.Millisecond)
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
