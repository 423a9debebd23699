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
// pending Recv, Wait and parked ring producer, on every transport.
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
	return &Comm{world: w, worldRank: rank, rank: rank, ep: w.eps[rank]}
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

// Comm is a rank's handle on a communicator: all point-to-point and
// collective operations go through it. The world communicator comes from
// World.Comm; sub-communicators from Split and Dup. A Comm is confined to
// its rank's goroutine, except that Isend/Irecv requests may be waited on
// from anywhere.
type Comm struct {
	world     *World
	worldRank int // this process's rank in the world
	rank      int // this process's rank within this communicator
	ep        *endpoint

	id    int   // communicator id; 0 is the world communicator
	group []int // group[i] = world rank of comm rank i; nil = identity

	collSeq  int // collective sequence number; aligned across ranks by call order
	splitSeq int // split/dup sequence number; aligned across ranks by call order
}

// Rank returns this process's rank within the communicator, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

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

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.group == nil {
		return c.world.size
	}
	return len(c.group)
}

// WorldRank returns this process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.worldRank }

// toWorld translates a communicator rank to a world rank.
func (c *Comm) toWorld(rank int) int {
	if c.group == nil {
		return rank
	}
	return c.group[rank]
}

// toSub translates a world rank back to this communicator's rank. It
// panics on a rank outside the group: the transport only delivers messages
// tagged with this communicator's id, which members alone can send.
func (c *Comm) toSub(worldRank int) int {
	if c.group == nil {
		return worldRank
	}
	for i, w := range c.group {
		if w == worldRank {
			return i
		}
	}
	panic(fmt.Sprintf("mpi: world rank %d is not in communicator %d", worldRank, c.id))
}

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

// send skips user-tag validation so collectives can use reserved tags. The
// destination is a communicator rank; the envelope carries world ranks and
// the communicator id.
func (c *Comm) send(to, tag int, data []byte) error {
	return c.world.tr.send(c.toWorld(to), Message{Source: c.worldRank, Tag: tag, Comm: c.id, Data: data})
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
// it holds no aliases into it. MPI-D's grouped Recv and
// mapred.Result.ByReducer alias received payloads and so keep them.
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
	return c.recv(source, tag)
}

func (c *Comm) recv(source, tag int) ([]byte, Status, error) {
	worldSource := source
	if source != AnySource {
		worldSource = c.toWorld(source)
	}
	m, err := c.ep.recv(c.id, worldSource, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return m.Data, Status{Source: c.toSub(m.Source), Tag: m.Tag, Size: len(m.Data)}, nil
}

// crecv is the collective-internal receive: from is a communicator rank,
// the payload alone is returned.
func (c *Comm) crecv(from, tag int) ([]byte, error) {
	m, err := c.ep.recv(c.id, c.toWorld(from), tag)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// Probe blocks until a message matching (source, tag) is available and
// returns its status without receiving it.
func (c *Comm) Probe(source, tag int) (Status, error) {
	worldSource := source
	if source != AnySource {
		worldSource = c.toWorld(source)
	}
	st, err := c.ep.probe(c.id, worldSource, tag)
	if err != nil {
		return st, err
	}
	st.Source = c.toSub(st.Source)
	return st, nil
}

// Iprobe reports whether a matching message is available, without blocking.
func (c *Comm) Iprobe(source, tag int) (Status, bool, error) {
	worldSource := source
	if source != AnySource {
		worldSource = c.toWorld(source)
	}
	st, ok, err := c.ep.iprobe(c.id, worldSource, tag)
	if err != nil || !ok {
		return st, ok, err
	}
	st.Source = c.toSub(st.Source)
	return st, ok, nil
}

// Request is a handle on a non-blocking operation. Wait blocks until it
// completes; Test polls.
type Request struct {
	once sync.Once
	done chan struct{}
	data []byte
	st   Status
	err  error
}

func newRequest() *Request { return &Request{done: make(chan struct{})} }

func (r *Request) complete(data []byte, st Status, err error) {
	r.once.Do(func() {
		r.data, r.st, r.err = data, st, err
		close(r.done)
	})
}

// Wait blocks until the operation completes. For receives, the payload is
// returned; for sends the payload is nil.
func (r *Request) Wait() ([]byte, Status, error) {
	<-r.done
	return r.data, r.st, r.err
}

// Test reports whether the operation has completed without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a non-blocking send and returns immediately. The same
// ownership rule as Send applies from the moment Isend is called.
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	req := newRequest()
	if err := validateRank(to, c.Size()); err != nil {
		req.complete(nil, Status{}, err)
		return req
	}
	if err := validateTag(tag); err != nil {
		req.complete(nil, Status{}, err)
		return req
	}
	go func() {
		err := c.send(to, tag, data)
		req.complete(nil, Status{}, err)
	}()
	return req
}

// Irecv starts a non-blocking receive for (source, tag).
func (c *Comm) Irecv(source, tag int) *Request {
	req := newRequest()
	if source != AnySource {
		if err := validateRank(source, c.Size()); err != nil {
			req.complete(nil, Status{}, err)
			return req
		}
	}
	if tag != AnyTag {
		if err := validateTag(tag); err != nil {
			req.complete(nil, Status{}, err)
			return req
		}
	}
	go func() {
		data, st, err := c.recv(source, tag)
		req.complete(data, st, err)
	}()
	return req
}

// WaitAll waits for every request and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
