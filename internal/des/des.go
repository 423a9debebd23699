// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a time-ordered event queue. On top
// of plain scheduled callbacks it offers goroutine-backed simulation
// processes (Proc) in the style of SimPy: a process runs real Go code and
// blocks on simulation primitives — Sleep, Resource.Acquire, Link.Transfer,
// Done.Wait, Signal.Wait — while the kernel guarantees that at most one
// process (or the kernel itself) executes at a time, so simulations are
// data-race free and fully deterministic: ties in event time are broken by
// schedule order.
//
// internal/sim builds the paper's testbed and both MapReduce systems'
// schedules on this package.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. It reuses time.Duration for convenient literals (3 *
// time.Second) and string formatting.
type Time = time.Duration

// Infinity is a virtual time later than any event a simulation can schedule.
const Infinity Time = Time(math.MaxInt64)

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired is a no-op.
func (ev *Event) Cancel() { ev.cancelled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is the simulation kernel. The zero value is not usable; create one
// with New. An Engine must be driven from a single goroutine (typically the
// test or main goroutine) via Run.
type Engine struct {
	now    Time
	queue  eventHeap
	seq    uint64
	yield  chan struct{} // process -> engine: "I blocked or finished"
	active int           // live (spawned, unfinished) processes
	inProc bool          // true while a process goroutine has control
	panicV any           // panic captured from a process goroutine
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// step pops and executes the next event. It reports false when the queue has
// drained.
func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fn()
		if e.panicV != nil {
			v := e.panicV
			e.panicV = nil
			panic(v)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains. If processes are still alive
// when the queue drains (a deadlock: every process is blocked and nothing can
// wake one), Run panics — silent deadlocks hide modelling bugs.
func (e *Engine) Run() {
	for e.step() {
	}
	if e.active > 0 {
		panic(fmt.Sprintf("des: deadlock — %d process(es) blocked with no pending events at %v", e.active, e.now))
	}
}

// Proc is a simulation process: real Go code running in its own goroutine,
// interleaved with the kernel so that exactly one of them executes at a time.
// All blocking methods must be called from the process's own goroutine.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go spawns a simulation process that starts at the current virtual time.
// fn runs in its own goroutine under kernel control; when fn returns the
// process terminates.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt spawns a simulation process that starts at absolute virtual time t.
func (e *Engine) GoAt(t Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.active++
	e.At(t, func() {
		go p.run(fn)
		e.handoff(p)
	})
	return p
}

// run is the body of the process goroutine.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			p.eng.panicV = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
		}
		p.eng.active--
		p.eng.yield <- struct{}{}
	}()
	<-p.resume // wait for the kernel to hand over control
	fn(p)
}

// handoff transfers control to process p and blocks until p yields (blocks on
// a primitive or terminates). It must only be called from kernel context.
func (e *Engine) handoff(p *Proc) {
	if e.inProc {
		panic("des: handoff while a process is already running")
	}
	e.inProc = true
	p.resume <- struct{}{}
	<-e.yield
	e.inProc = false
}

// yieldAndWait is called from a process goroutine after it has registered a
// wakeup. It returns control to the kernel and blocks until the kernel hands
// control back.
func (p *Proc) yieldAndWait() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// wake schedules process p to resume at the current virtual time. It must be
// called from kernel context (an event callback) or from another process.
func (e *Engine) wake(p *Proc) {
	e.After(0, func() { e.handoff(p) })
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.At(p.eng.now+d, func() { p.eng.handoff(p) })
	p.yieldAndWait()
}

// Signal is a broadcast condition: processes wait on it, another party fires
// it, and all current waiters resume. Later waiters block until the next
// Fire. A fired Signal resets automatically.
type Signal struct {
	eng     *Engine
	waiters []*Proc
}

// NewSignal creates a Signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks the process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.yieldAndWait()
}

// Fire wakes every process currently waiting, in FIFO order.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.eng.wake(w)
	}
}

// Done is a one-shot completion latch. Wait returns immediately once
// Complete has been called.
type Done struct {
	eng      *Engine
	complete bool
	waiters  []*Proc
}

// NewDone creates a latch bound to the engine.
func NewDone(e *Engine) *Done { return &Done{eng: e} }

// Complete releases all current and future waiters. Calling it twice panics:
// a latch completing twice means two owners think they finished the same work.
func (d *Done) Complete() {
	if d.complete {
		panic("des: Done completed twice")
	}
	d.complete = true
	ws := d.waiters
	d.waiters = nil
	for _, w := range ws {
		d.eng.wake(w)
	}
}

// Wait blocks the process until Complete is called (or returns immediately
// if it already was).
func (d *Done) Wait(p *Proc) {
	if d.complete {
		return
	}
	d.waiters = append(d.waiters, p)
	p.yieldAndWait()
}

// WaitAll blocks the process until every latch has completed.
func WaitAll(p *Proc, ds ...*Done) {
	for _, d := range ds {
		d.Wait(p)
	}
}
