package mpi

import (
	"sync"
)

// endpoint is one rank's receive side: an unexpected-message queue plus the
// blocking matched-receive machinery. The in-process and TCP transports
// deliver into an endpoint via deliver; the ring transport instead attaches
// a pump and lets the receiving rank drive its own progress. Receive
// semantics are identical across transports either way.
type endpoint struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message // arrival order preserved; scanned for envelope match
	closed bool

	// pump, when set, is the transport's receiver-driven progress engine
	// (the ring transport): instead of a delivery goroutine pushing into
	// the queue, whichever receiver is blocked takes the pump role, drains
	// the transport and matches in place. pumping marks the role taken;
	// both fields are guarded by mu, and waitNext is only ever called by
	// the role holder, so the transport side needs no extra
	// synchronization.
	pump    pump
	pumping bool
	nwait   int // receivers blocked in cond.Wait; broadcasts skip when zero
}

// pump is the receiver-driven progress interface a transport may attach to
// an endpoint: waitNext blocks until a message is available or the transport
// shuts down (second result false).
type pump interface {
	waitNext() (Message, bool)
}

func newEndpoint() *endpoint {
	ep := &endpoint{}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// deliver appends an arrived message and wakes matchers.
func (ep *endpoint) deliver(m Message) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return ErrWorldClosed
	}
	ep.queue = append(ep.queue, m)
	ep.wakeLocked()
	return nil
}

// wakeLocked broadcasts to blocked receivers, skipping the (cheap but not
// free) notify when nobody waits — the common case on the ping-pong fast
// path, where the sole receiver holds the pump role instead of a cond slot.
func (ep *endpoint) wakeLocked() {
	if ep.nwait > 0 {
		ep.cond.Broadcast()
	}
}

// waitLocked blocks on the cond, keeping the waiter count that wakeLocked
// consults.
func (ep *endpoint) waitLocked() {
	ep.nwait++
	ep.cond.Wait()
	ep.nwait--
}

// matches reports whether message m satisfies the (source, tag) envelope.
func matches(m Message, source, tag int) bool {
	if source != AnySource && m.Source != source {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// findLocked returns the index of the earliest queued match, or -1.
// Scanning in arrival order preserves non-overtaking for matching envelopes.
func (ep *endpoint) findLocked(source, tag int) int {
	for i, m := range ep.queue {
		if matches(m, source, tag) {
			return i
		}
	}
	return -1
}

// removeLocked removes and returns queue[i].
func (ep *endpoint) removeLocked(i int) Message {
	m := ep.queue[i]
	copy(ep.queue[i:], ep.queue[i+1:])
	ep.queue[len(ep.queue)-1] = Message{} // drop payload reference
	ep.queue = ep.queue[:len(ep.queue)-1]
	return m
}

// recv blocks until a message matching (source, tag) arrives and returns it.
//
// With a pump attached, the first blocked receiver takes the pump role and
// drives transport progress itself: it drains published messages, returns
// its own match directly (skipping the queue — safe, because the loop top
// already proved no earlier queued match exists, and per-source FIFO pop
// order preserves non-overtaking), queues everything else for the other
// waiters, and hands the role over when it leaves.
func (ep *endpoint) recv(source, tag int) (Message, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if i := ep.findLocked(source, tag); i >= 0 {
			return ep.removeLocked(i), nil
		}
		if ep.closed {
			return Message{}, ErrWorldClosed
		}
		if ep.pump != nil && !ep.pumping {
			ep.pumping = true
			ep.mu.Unlock()
			m, ok := ep.pump.waitNext()
			ep.mu.Lock()
			ep.pumping = false
			if !ok {
				// Transport shut down under us; nothing matched before we
				// took the role and only the role holder appends, so there
				// is no match to salvage.
				ep.wakeLocked()
				return Message{}, ErrWorldClosed
			}
			if matches(m, source, tag) {
				ep.wakeLocked() // hand the pump role to a waiter
				return m, nil
			}
			ep.queue = append(ep.queue, m)
			ep.wakeLocked()
			continue
		}
		ep.waitLocked()
	}
}

// close marks the endpoint dead and wakes all blocked receivers.
func (ep *endpoint) close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed = true
	ep.cond.Broadcast()
}
