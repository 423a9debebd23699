package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ict-repro/mpid/internal/bufpool"
)

// World is a set of communicating ranks sharing one transport. Create one
// with NewWorld (in-process) or NewTCPWorld (sockets), obtain per-rank
// communicators with Comm, and Close it when done — or Abort it, from any
// goroutine, when the work on it must stop early: both unblock every
// pending Recv and parked ring producer, on every transport.
type World struct {
	size int
	eps  []*endpoint
	tr   transport

	mu    sync.Mutex
	cause error // why the world shut down; nil while open, set once
}

// NewWorld creates an in-process world of n ranks. Ranks are goroutines;
// message hand-off is zero-copy.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", n))
	}
	eps := make([]*endpoint, n)
	for i := range eps {
		eps[i] = newEndpoint()
	}
	return &World{size: n, eps: eps, tr: &procTransport{eps: eps}}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the communicator for the given rank. Each rank must use its
// own communicator from its own goroutine.
func (w *World) Comm(rank int) *Comm {
	if err := validateRank(rank, w.size); err != nil {
		panic(err)
	}
	return &Comm{world: w, rank: rank, ep: w.eps[rank]}
}

// Close shuts the world down: blocked receives return ErrWorldClosed.
// Close is idempotent.
func (w *World) Close() error { return w.Abort(ErrWorldClosed) }

// Abort is Close with a reason: a failed rank's error, a canceled context's
// cause (nil means ErrWorldClosed). Ranks still unblock with ErrWorldClosed
// — the reason is not theirs — and Cause, which is what RunOn returns for
// them, keeps it. Only the first Close or Abort acts; a later one waits for
// it to finish and changes nothing.
func (w *World) Abort(cause error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cause != nil {
		return nil
	}
	if cause == nil {
		cause = ErrWorldClosed
	}
	w.cause = cause
	for _, ep := range w.eps {
		ep.close()
	}
	return w.tr.close()
}

// Cause reports why the world shut down: the error given to the Abort that
// closed it, ErrWorldClosed after a plain Close, nil while it is open. Once
// it is non-nil the shutdown is complete: no rank is still blocked and no
// send succeeds.
func (w *World) Cause() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cause
}

// procTransport delivers directly into the destination endpoint queue.
type procTransport struct {
	eps []*endpoint
}

func (t *procTransport) send(to int, m Message) error {
	return t.eps[to].deliver(m)
}

func (t *procTransport) close() error { return nil }

func (t *procTransport) copies() bool { return false }

func (t *procTransport) recvPool() *bufpool.Pool { return nil }

// Run executes body once per rank, each in its own goroutine, over a fresh
// in-process world, and waits for all of them. It returns the first rank
// failure (the other ranks then unblock with ErrWorldClosed as the world is
// torn down). This is the moral equivalent of mpirun -np n.
func Run(n int, body func(*Comm) error) error {
	w := NewWorld(n)
	defer w.Close()
	return RunOn(w, body)
}

// RunOn executes body once per rank of an existing world and waits. A rank
// that returns an error, panics or exits without returning (runtime.Goexit)
// aborts the world with that failure, so no peer stays blocked on it. If any
// rank failed, RunOn returns the world's Cause: the failure that came first
// in time — not the ErrWorldClosed, or a transport's closed-socket error,
// that its peers then report — or the reason an outside Abort gave.
func RunOn(w *World, body func(*Comm) error) error {
	var wg sync.WaitGroup
	var failed atomic.Bool
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var err error
			returned := false
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				} else if !returned {
					err = fmt.Errorf("mpi: rank %d exited without returning", rank)
				}
				if err != nil {
					failed.Store(true)
					w.Abort(err) // unblock peers waiting on this rank
				}
			}()
			err = body(w.Comm(rank))
			returned = true
		}(r)
	}
	wg.Wait()
	if !failed.Load() {
		return nil
	}
	return w.Cause()
}

// Comm is a rank's handle on the world: Send, Recv and Barrier go through
// it. A Comm is confined to its rank's goroutine.
type Comm struct {
	world *World
	rank  int
	ep    *endpoint

	barrierSeq int // Barrier calls so far; aligned across ranks by call order
}

// Rank returns this process's rank, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// SendCopies reports whether Send copies the payload before returning. When
// true (TCP transport) the caller may reuse its buffer immediately after
// Send; when false (in-process transport) ownership transfers with the
// message, as Send documents. MPI-D's spill path uses this to recycle
// realigned partition buffers across spills where it is safe.
func (c *Comm) SendCopies() bool { return c.world.tr.copies() }

// RecvBufferPool returns the pool the transport looks received frame
// payloads up in, or nil (in-process transport). A receiver that has fully
// consumed a payload — and holds no aliases into it — may Put it back so
// steady-state frame reads stop allocating; returning foreign buffers is
// harmless.
//
// On TCP a frame the pool has no buffer for is read into one of exactly the
// frame's size, because most receivers keep their frames and a kept buffer
// rounded up to its size class is cleared memory nobody reads. Putting back
// therefore pays off for payloads of a class size (a power of two from
// 4 KiB to 16 MiB) and for a recurring size below 4 KiB; a buffer of any
// other size files under the class below the one the next read of that size
// looks in, so the put is harmless and the read allocates again — a
// 520 000-byte stream with put-back runs at about two thirds of its
// class-sized rate (BenchmarkTCPStream, EXPERIMENTS.md "Pay for a sort
// job's bytes once").
func (c *Comm) RecvBufferPool() *bufpool.Pool { return c.world.tr.recvPool() }

// Send transmits data to rank `to` with the given tag. It is a buffered
// (eager) send: it returns once the message is handed to the transport.
// Ownership of data transfers with the message — the caller must not modify
// the slice afterwards (the in-process transport is zero-copy).
func (c *Comm) Send(to, tag int, data []byte) error {
	if err := validateRank(to, c.Size()); err != nil {
		return err
	}
	if err := validateTag(tag); err != nil {
		return err
	}
	return c.send(to, tag, data)
}

// send skips user-tag validation so Barrier can use reserved tags.
func (c *Comm) send(to, tag int, data []byte) error {
	return c.world.tr.send(to, Message{Source: c.rank, Tag: tag, Data: data})
}

// Recv blocks until a message matching (source, tag) arrives and returns
// its payload. source may be AnySource and tag may be AnyTag; the returned
// Status carries the actual envelope.
//
// The payload belongs to the receiver for good, on every transport: the
// in-process transports hand over the sender's slice (which Send forbids the
// sender to touch again), the copying ring and TCP hand over a buffer drawn
// from RecvBufferPool (on a TCP pool miss, one allocated at exactly the
// payload's size) that the transport never reclaims — not on a later Recv,
// not when the world closes. Only the receiver may recycle it, and only once
// it holds no aliases into it. MPI-D's grouped Recv keeps its payloads: they
// are the runs it merges, and the value lists it returns alias them.
//
// Once the world has shut down — Close, Abort, or a failed rank under RunOn
// — a Recv with no queued match returns ErrWorldClosed, whatever the reason;
// World.Cause holds the reason.
func (c *Comm) Recv(source, tag int) ([]byte, Status, error) {
	if source != AnySource {
		if err := validateRank(source, c.Size()); err != nil {
			return nil, Status{}, err
		}
	}
	if tag != AnyTag {
		if err := validateTag(tag); err != nil {
			return nil, Status{}, err
		}
	}
	m, err := c.ep.recv(source, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return m.Data, Status{Source: m.Source, Tag: m.Tag, Size: len(m.Data)}, nil
}
