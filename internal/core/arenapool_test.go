package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"github.com/ict-repro/mpid/internal/mpi"
)

// TestFinalizedInstanceLetsGoOfItsArena: Finalize hands the private arena to
// the pool, where the next Init — possibly already running — may take it.
// The finalized instance must therefore hold no reference to it, and every
// later call must return before it would need one.
func TestFinalizedInstanceLetsGoOfItsArena(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for {
				if _, _, err := d.Recv(); err == io.EOF {
					return d.Finalize()
				} else if err != nil {
					return err
				}
			}
		}
		if d.buf == nil {
			return errors.New("a sender has no arena after Init")
		}
		if err := d.Send([]byte("k"), []byte("v")); err != nil {
			return err
		}
		if err := d.Finalize(); err != nil {
			return err
		}
		if d.buf != nil {
			return errors.New("a finalized instance still references its arena")
		}
		if err := d.Send([]byte("k"), []byte("v")); !errors.Is(err, ErrFinalized) {
			return fmt.Errorf("Send after Finalize: %v, want ErrFinalized", err)
		}
		if err := d.Flush(); !errors.Is(err, ErrFinalized) {
			return fmt.Errorf("Flush after Finalize: %v, want ErrFinalized", err)
		}
		if err := d.CloseSend(); err != nil {
			return fmt.Errorf("CloseSend after Finalize: %v, want nil", err)
		}
		if err := d.Finalize(); err != nil {
			return fmt.Errorf("second Finalize: %v, want nil", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortedInstanceKeepsItsArena: a Finalize that fails — here because the
// world was aborted under it — returns nothing to the pool; the arena stays
// with the failed instance and is collected with it.
func TestAbortedInstanceKeepsItsArena(t *testing.T) {
	cause := errors.New("aborted on purpose")
	w := mpi.NewWorld(2)
	defer w.Close()
	d, err := Init(Config{Comm: w.Comm(1), Reducers: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Send([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	w.Abort(cause)
	if err := d.Finalize(); err == nil {
		t.Fatal("Finalize on an aborted world succeeded")
	}
	if d.buf == nil {
		t.Fatal("a failed Finalize gave up the arena; it must stay with the instance")
	}
}

// TestConcurrentInstancesNeverShareAnArena runs many short jobs at once, each
// on its own world. Every sender registers its arena while it is live; two
// live senders holding one arena is the bug. Each job's reducer also checks
// it received that job's pairs and nothing else, and the race detector
// watches the arenas' memory.
func TestConcurrentInstancesNeverShareAnArena(t *testing.T) {
	var mu sync.Mutex
	live := make(map[*arenaBuffer]int)
	job := func(id int) error {
		const pairs = 200
		return mpi.Run(2, func(c *mpi.Comm) error {
			d, err := Init(Config{Comm: c, Reducers: []int{0}, SpillThreshold: 1024})
			if err != nil {
				return err
			}
			if d.IsReducer() {
				seen := 0
				for {
					k, vs, err := d.Recv()
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if want := fmt.Sprintf("job%04d-key%04d", id, seen); string(k) != want || len(vs) != 1 || string(vs[0]) != want {
						return fmt.Errorf("job %d received %q -> %q, want %q", id, k, vs, want)
					}
					seen++
				}
				if seen != pairs {
					return fmt.Errorf("job %d received %d keys, want %d", id, seen, pairs)
				}
				return d.Finalize()
			}
			mu.Lock()
			other, taken := live[d.buf]
			live[d.buf] = id
			mu.Unlock()
			if taken {
				return fmt.Errorf("jobs %d and %d hold the same arena", other, id)
			}
			for i := 0; i < pairs; i++ {
				p := []byte(fmt.Sprintf("job%04d-key%04d", id, i))
				if err := d.Send(p, p); err != nil {
					return err
				}
			}
			// Deregister first: the moment Finalize returns the arena, a
			// concurrent Init may legitimately be holding it.
			mu.Lock()
			delete(live, d.buf)
			mu.Unlock()
			return d.Finalize()
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				if err := job(g*100 + round); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
