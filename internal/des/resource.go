package des

import "fmt"

// Resource models a counted resource (CPU cores, task slots) with FIFO
// admission. A process acquires n units, holds them while
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
