package des

import "fmt"

// Resource models a counted resource (CPU slots, disk channels, copier
// threads) with FIFO admission. A process acquires n units, holds them while
// it works, and releases them; waiters are admitted strictly in arrival
// order, so the simulation is deterministic.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource %q needs positive capacity, got %d", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks the process until n units are available and admission is
// FIFO-fair (a waiter never overtakes an earlier one, even if the earlier one
// needs more units). Requesting more than the capacity panics.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d exceeds capacity %d of resource %q", n, r.capacity, r.name))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	p.yieldAndWait()
}

// Release returns n units and admits as many queued waiters as now fit.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("des: resource %q released below zero", r.name))
	}
	r.admit()
}

func (r *Resource) admit() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.waiters = r.waiters[1:]
		r.eng.wake(w.p)
	}
}

// Use acquires n units, holds them for d of virtual time, and releases them.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Queue is an unbounded FIFO of items passed between processes. Put never
// blocks; Get blocks until an item is available. It is the DES analogue of a
// Go channel and is used for task queues and message mailboxes.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue creates an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends an item and wakes one waiting consumer, if any. Put may be
// called from kernel context (event callbacks) or from a process.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("des: Put on closed Queue")
	}
	q.items = append(q.items, v)
	q.wakeOne()
}

// Close marks the queue closed: blocked and future Gets return ok=false once
// the queue drains.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	// Wake everyone; they will observe closed-and-empty.
	for len(q.waiters) > 0 {
		q.wakeOne()
	}
}

func (q *Queue[T]) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	q.eng.wake(w)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. It returns ok=false if the queue is closed and drained. Waiters are
// served FIFO; a woken waiter re-checks, so spurious wakeups from Close are
// harmless.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.yieldAndWait()
	}
	v = q.items[0]
	q.items = q.items[1:]
	// An item may have arrived for another waiter while we were scheduled.
	if len(q.items) > 0 {
		q.wakeOne()
	}
	return v, true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
