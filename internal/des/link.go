package des

import (
	"fmt"
	"math"
)

// Link models a bandwidth-shared channel with processor-sharing semantics:
// when k transfers are active, each progresses at rate/k bytes per second.
// This matches how concurrent TCP flows share a NIC or a switch port closely
// enough for shuffle-contention modelling, and it is what makes reduce-side
// copy times stretch when many copiers fetch at once.
//
// A Link recomputes the earliest completion whenever its active set changes
// and schedules exactly one pending event, so a transfer costs O(log n)
// events overall.
type Link struct {
	eng       *Engine
	name      string
	rate      float64 // bytes per second of virtual time
	active    []*transfer
	lastTouch Time
	pending   *Event
	moved     int64 // total bytes completed, for accounting
}

type transfer struct {
	total     float64
	remaining float64
	done      *Done
}

// NewLink creates a link with the given capacity in bytes/second.
func NewLink(e *Engine, name string, bytesPerSecond float64) *Link {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("des: link %q needs positive rate, got %g", name, bytesPerSecond))
	}
	return &Link{eng: e, name: name, rate: bytesPerSecond, lastTouch: e.now}
}

// ActiveTransfers returns the number of in-flight transfers.
func (l *Link) ActiveTransfers() int { return len(l.active) }

// BytesMoved returns the total bytes of completed transfers.
func (l *Link) BytesMoved() int64 { return l.moved }

// Transfer moves n bytes across the link, blocking the process until the
// transfer completes under fair sharing with all concurrent transfers.
func (l *Link) Transfer(p *Proc, n int64) {
	l.Start(n).Wait(p)
}

// Start begins a transfer of n bytes and returns a latch that completes when
// the bytes have moved. It can be called from kernel context; combining Start
// with WaitAll lets one process drive several concurrent transfers.
func (l *Link) Start(n int64) *Done {
	d := NewDone(l.eng)
	if n <= 0 {
		d.Complete()
		return d
	}
	l.settle()
	l.active = append(l.active, &transfer{total: float64(n), remaining: float64(n), done: d})
	l.reschedule()
	return d
}

// settle applies progress since lastTouch to every active transfer.
func (l *Link) settle() {
	now := l.eng.now
	if now == l.lastTouch || len(l.active) == 0 {
		l.lastTouch = now
		return
	}
	elapsed := now.Seconds() - l.lastTouch.Seconds()
	share := l.rate / float64(len(l.active))
	progress := share * elapsed
	for _, t := range l.active {
		t.remaining -= progress
	}
	l.lastTouch = now
}

// reschedule computes the next completion time and (re)schedules the single
// pending event.
func (l *Link) reschedule() {
	if l.pending != nil {
		l.pending.Cancel()
		l.pending = nil
	}
	if len(l.active) == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, t := range l.active {
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	share := l.rate / float64(len(l.active))
	dt := secondsToTime(minRem / share)
	l.pending = l.eng.After(dt, l.complete)
}

// complete fires when the earliest transfer(s) finish.
func (l *Link) complete() {
	l.pending = nil
	l.settle()
	// Numerical slack: transfers within half a byte of done are done. The
	// clock has nanosecond granularity, so rounding can leave sub-byte
	// residue that must not spin the event loop.
	const eps = 0.5
	kept := l.active[:0]
	for _, t := range l.active {
		if t.remaining <= eps {
			l.moved += int64(t.total + 0.5)
			t.done.Complete()
		} else {
			kept = append(kept, t)
		}
	}
	// Zero dropped slots so the backing array does not retain latches.
	for i := len(kept); i < len(l.active); i++ {
		l.active[i] = nil
	}
	l.active = kept
	l.reschedule()
}

// secondsToTime converts a float seconds quantity to virtual Time, rounding
// up so a transfer never completes early.
func secondsToTime(s float64) Time {
	if s <= 0 {
		return 0
	}
	ns := math.Ceil(s * 1e9)
	if ns >= float64(math.MaxInt64) {
		return Infinity
	}
	return Time(ns)
}

// FromSeconds converts float seconds to virtual Time, rounding up.
func FromSeconds(s float64) Time { return secondsToTime(s) }
