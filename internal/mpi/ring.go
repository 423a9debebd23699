package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/faults"
)

// The ring transport is the shared-memory fast path for co-located ranks:
// every directed (source, destination) pair owns one bounded ring of
// fixed-size slots, published by sequence number exactly as a shared-memory
// MPI device publishes eager fragments. It exists because the in-process
// chan transport, while zero-copy, pays a mutex + condition-variable wakeup
// per message: the sender locks the receiver's endpoint, appends, and
// broadcasts, which parks and unparks goroutines through the runtime
// semaphore on every ping-pong. The ring replaces that rendezvous with
// single-writer slot publication and a spin-then-park consumer, so a
// small-message round trip in the common case is two atomic stores and a
// few dozen spins — no lock, no futex, no goroutine switch.
//
// Layout and protocol (per ring):
//
//   - slots[i].seq carries the Vyukov sequence: a slot is free for the
//     producer claiming position pos when seq == pos, published to the
//     consumer when seq == pos+1, and recycled for the next lap when the
//     consumer stores seq = pos + len(slots). Producers claim positions
//     with a CAS on enq; the single consumer (the destination rank's
//     receive path) walks deq without contention. Payload and envelope
//     fields are plain memory — the seq atomics order them.
//
//   - in the default zero-copy mode the payload reference rides in the
//     slot and ownership transfers with the message, exactly the chan
//     transport's contract — the ring only replaces that transport's
//     mutex/cond rendezvous with slot publication. In the CopyPayloads
//     device-emulation mode (what a real shared-memory MPI device must
//     do across address spaces), payloads at or below the inline
//     threshold are copied into the slot's inline region (eager) and
//     larger ones into a pooled out-of-line buffer whose in-flight bytes
//     are bounded by the ring's arena budget (rendezvous); the consumer
//     hands the out-of-line buffer straight to the application — one
//     copy end to end — and returns inline payloads through the
//     transport's receive pool, so Send leaves the caller's buffer free
//     for reuse (SendCopies) and a steady exchange still allocates
//     nothing in either direction.
//
//   - wakeups batch through a generation gate per destination rank: a
//     publish bumps the generation and posts the gate's token only when
//     the consumer has declared itself parked, extending the TCP
//     transport's last-writer-flush idea to consumer wakeups — a burst of
//     back-to-back sends costs one wakeup, not one per message.
//
// The consumer side is driven by the receiving rank itself: whichever
// goroutine is blocked in Recv takes the endpoint's pump role, drains
// published slots into the shared matching queue, and hands the role over
// when it leaves (see endpoint.recv). A torn slot — a producer that claimed
// a position and died before publishing — stalls only its own ring, exactly
// as a torn TCP frame kills only its own connection; other sources keep
// delivering.

// Ring geometry defaults; see RingConfig to override.
const (
	defaultRingSlots  = 256
	defaultRingInline = 1 << 10 // 1 KiB eager/inline split
	defaultRingArena  = 4 << 20 // 4 MiB in-flight rendezvous bytes per pair

)

// Spin policy: how many failed polls a consumer (or a producer facing a
// full ring / empty arena) burns before parking, and how often a spin
// yields the processor. On a multi-core box the peer runs concurrently, so
// polling tightly between occasional yields wins; on a single-core box
// every spin steals the only processor from the peer, so the right move is
// to yield immediately and park soon. Initialized from GOMAXPROCS at
// startup.
var ringSpinBudget, ringSpinYield = func() (int, int) {
	if runtime.GOMAXPROCS(0) > 1 {
		return 256, 16
	}
	return 8, 1
}()

// RingConfig shapes a ring-transport world. The zero value selects the
// defaults above.
type RingConfig struct {
	// Slots is the per-pair ring capacity in messages; rounded up to a
	// power of two. A full ring backpressures the sender (spin, then
	// park) exactly as a full TCP socket buffer would.
	Slots int
	// InlineBytes is the eager/rendezvous split: payloads at or below it
	// travel inline in the slot, larger ones through the out-of-line
	// arena.
	InlineBytes int
	// ArenaBytes bounds the in-flight out-of-line payload bytes per pair
	// (the shared-memory arena analogue). A single message larger than
	// the whole budget is still accepted — it borrows the entire arena —
	// so oversized rendezvous messages cannot deadlock.
	ArenaBytes int
	// CopyPayloads selects the copying device emulation: eager payloads
	// travel inline in the slot, rendezvous payloads through the pooled
	// arena, and Send returns with the caller's buffer free to reuse
	// (SendCopies() == true, the TCP transport's contract). The default
	// zero-copy mode hands the payload reference through the slot with
	// the chan transport's ownership-transfer semantics. InlineBytes and
	// ArenaBytes only apply in copying mode.
	CopyPayloads bool
	// Injector, when set, gates sends ("send" operation on component
	// "mpi.rank<r>", peer the destination component), mirroring the TCP
	// transport's injection points.
	Injector *faults.Injector
}

func (cfg RingConfig) withDefaults() RingConfig {
	if cfg.Slots <= 0 {
		cfg.Slots = defaultRingSlots
	}
	// Round up to a power of two for mask arithmetic.
	n := 1
	for n < cfg.Slots {
		n <<= 1
	}
	cfg.Slots = n
	if cfg.InlineBytes <= 0 {
		cfg.InlineBytes = defaultRingInline
	}
	if cfg.ArenaBytes <= 0 {
		cfg.ArenaBytes = defaultRingArena
	}
	return cfg
}

// NewRingWorld creates a world of n ranks over the shared-memory-style
// ring transport with default geometry (zero-copy hand-off).
func NewRingWorld(n int) *World {
	return NewRingWorldConfig(n, RingConfig{})
}

// NewRingWorldConfig creates a ring world with explicit geometry.
func NewRingWorldConfig(n int, cfg RingConfig) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", n))
	}
	cfg = cfg.withDefaults()
	eps := make([]*endpoint, n)
	for i := range eps {
		eps[i] = newEndpoint()
	}
	t := &ringTransport{
		eps:   eps,
		cfg:   cfg,
		pool:  bufpool.New(),
		rings: make([][]*ring, n),
		gates: make([]*gate, n),
		comps: rankComponents(n),
	}
	for dst := 0; dst < n; dst++ {
		t.gates[dst] = newGate()
		t.rings[dst] = make([]*ring, n)
		for src := 0; src < n; src++ {
			t.rings[dst][src] = newRing(cfg, t.gates[dst], t.pool, &t.shut)
		}
		eps[dst].pump = &ringPump{t: t, dst: dst}
	}
	return &World{size: n, eps: eps, tr: t}
}

// --------------------------------------------------------------------------
// Gate: batched consumer wakeups.

// gate is the publication gate for one destination rank: a parked flag
// plus a one-token wake channel. A publish signals the gate only when the
// consumer has declared itself parked, so a running consumer costs
// producers a single atomic load per message — the batching that keeps a
// burst of back-to-back sends at one wakeup.
//
// The no-lost-wakeup argument: the consumer sets parked BEFORE its final
// poll of the rings, and a producer publishes (seq store) BEFORE loading
// parked. Both are sequentially consistent atomics, so either the
// consumer's final poll observes the publication, or the producer's load
// observes the parked flag and posts the token. A stale token (consumer
// found the message in the final poll while the producer also signalled)
// only costs one spurious wake next time.
type gate struct {
	parked atomic.Uint32
	ch     chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{}, 1)} }

// signal wakes a parked consumer, if any.
func (g *gate) signal() {
	if g.parked.Load() != 0 && g.parked.Swap(0) != 0 {
		select {
		case g.ch <- struct{}{}:
		default:
		}
	}
}

// arm declares the consumer parked. The caller must re-poll its rings
// after arming and only then block on wait; see the ordering argument on
// gate.
func (g *gate) arm() { g.parked.Store(1) }

// disarm retracts an arm after the re-poll found a message.
func (g *gate) disarm() { g.parked.Store(0) }

// wait blocks until a producer posts the wake token.
func (g *gate) wait() { <-g.ch }

// --------------------------------------------------------------------------
// Ring: one directed pair.

// ringSlot is one message cell. seq orders every other field; inline is a
// fixed-capacity window into the ring's backing array.
type ringSlot struct {
	seq    atomic.Uint64
	src    int32
	size   int32
	tag    int64
	ext    []byte // out-of-line payload (nil for inline)
	inline []byte // slot-owned inline window, cap = InlineBytes
}

// ring is the bounded SPSC-consumer / multi-claimer-producer queue for one
// (source, destination) pair.
type ring struct {
	slots []ringSlot
	mask  uint64
	_     [56]byte // keep enq and deq off each other's cache line
	enq   atomic.Uint64
	_     [56]byte
	// deq is plain, not atomic: only the consumer (the endpoint's pump
	// role holder) touches it, and role transfer is ordered by the
	// endpoint mutex.
	deq uint64
	_   [56]byte

	// Out-of-line arena accounting: extBytes tracks in-flight rendezvous
	// payload bytes, bounded by arenaMax.
	extBytes atomic.Int64
	arenaMax int64
	inline   int

	// Producer-side slow path: senders blocked on a full ring or an
	// exhausted arena park here; the consumer broadcasts when it frees a
	// slot or returns credit, but only when waiters says someone is
	// actually parked.
	waiters atomic.Int32
	wmu     sync.Mutex
	wcond   *sync.Cond

	copyMode bool

	gate *gate
	pool *bufpool.Pool
	shut *atomic.Bool
}

func newRing(cfg RingConfig, g *gate, pool *bufpool.Pool, shut *atomic.Bool) *ring {
	r := &ring{
		slots:    make([]ringSlot, cfg.Slots),
		mask:     uint64(cfg.Slots - 1),
		arenaMax: int64(cfg.ArenaBytes),
		inline:   cfg.InlineBytes,
		copyMode: cfg.CopyPayloads,
		gate:     g,
		pool:     pool,
		shut:     shut,
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	if r.copyMode {
		backing := make([]byte, cfg.Slots*cfg.InlineBytes)
		for i := range r.slots {
			r.slots[i].inline = backing[i*cfg.InlineBytes : (i+1)*cfg.InlineBytes : (i+1)*cfg.InlineBytes]
		}
	}
	r.wcond = sync.NewCond(&r.wmu)
	return r
}

// wake unparks producers blocked on space or arena credit. Cheap when
// nobody waits: one atomic load.
func (r *ring) wake() {
	if r.waiters.Load() > 0 {
		r.wmu.Lock()
		r.wcond.Broadcast()
		r.wmu.Unlock()
	}
}

// acquireCredit reserves n in-flight out-of-line bytes, blocking while the
// arena is exhausted. A message larger than the whole arena is admitted
// once the arena is empty (it borrows the full budget), so oversized
// sends make progress instead of deadlocking.
func (r *ring) acquireCredit(n int64) error {
	try := func() bool {
		for {
			cur := r.extBytes.Load()
			if cur != 0 && cur+n > r.arenaMax {
				return false
			}
			if r.extBytes.CompareAndSwap(cur, cur+n) {
				return true
			}
		}
	}
	for i := 0; i < ringSpinBudget; i++ {
		if try() {
			return nil
		}
		if r.shut.Load() {
			return ErrWorldClosed
		}
		if i%ringSpinYield == ringSpinYield-1 {
			runtime.Gosched()
		}
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	for {
		if r.shut.Load() {
			return ErrWorldClosed
		}
		if try() {
			return nil
		}
		r.wcond.Wait()
	}
}

// releaseCredit returns out-of-line bytes to the arena.
func (r *ring) releaseCredit(n int64) { r.extBytes.Add(-n) }

// push claims a slot, fills it and publishes. Blocks while the ring is
// full (spin, then park on the producer cond). Payload bytes are copied
// before return — inline into the slot, out-of-line into a pooled buffer
// — so the caller may reuse its slice immediately (copies() == true).
func (r *ring) push(m Message) error {
	n := len(m.Data)
	var ext []byte
	inline := false
	switch {
	case !r.copyMode:
		ext = m.Data // zero-copy: ownership rides with the slot
	case n <= r.inline:
		inline = true
	default:
		if err := r.acquireCredit(int64(n)); err != nil {
			return err
		}
		ext = r.pool.Get(n)
		copy(ext, m.Data)
	}
	abort := func(err error) error {
		if r.copyMode && !inline {
			r.releaseCredit(int64(n))
			r.pool.Put(ext)
		}
		return err
	}
	spins := 0
	for {
		if r.shut.Load() {
			return abort(ErrWorldClosed)
		}
		pos := r.enq.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if !r.enq.CompareAndSwap(pos, pos+1) {
				continue // lost the claim race; re-read enq
			}
			slot.src = int32(m.Source)
			slot.tag = int64(m.Tag)
			slot.size = int32(n)
			if inline {
				if n > 0 {
					copy(slot.inline[:n], m.Data)
				}
			} else {
				slot.ext = ext
			}
			slot.seq.Store(pos + 1) // publish
			r.gate.signal()
			return nil
		case seq < pos:
			// Full: the slot has not been recycled from the previous lap.
			if err := r.waitSpace(pos, slot, &spins); err != nil {
				return abort(err)
			}
		default:
			// Another producer claimed pos and published already; retry.
		}
	}
}

// waitSpace blocks until slot (the cell for position pos) is recycled, or
// the world shuts down. Spin first; park on the producer cond after the
// budget.
func (r *ring) waitSpace(pos uint64, slot *ringSlot, spins *int) error {
	if *spins < ringSpinBudget {
		*spins++
		if *spins%ringSpinYield == 0 {
			runtime.Gosched()
		}
		return nil
	}
	*spins = 0
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	for slot.seq.Load() < pos {
		if r.shut.Load() {
			return ErrWorldClosed
		}
		r.wcond.Wait()
	}
	return nil
}

// pop consumes the next published message, if any. Single-consumer: only
// the destination endpoint's pump role calls it. Inline payloads are
// copied out into a pooled buffer; out-of-line payloads transfer
// ownership of their pooled buffer directly.
func (r *ring) pop() (Message, bool) {
	pos := r.deq
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return Message{}, false
	}
	m := Message{Source: int(slot.src), Tag: int(slot.tag)}
	n := int(slot.size)
	if slot.ext != nil {
		m.Data = slot.ext[:n]
		slot.ext = nil
		if r.copyMode {
			r.releaseCredit(int64(n))
		}
	} else if slot.inline != nil && n > 0 {
		buf := r.pool.Get(n)
		copy(buf, slot.inline[:n])
		m.Data = buf
	}
	slot.seq.Store(pos + uint64(len(r.slots))) // recycle for the next lap
	r.deq = pos + 1
	r.wake()
	return m, true
}

// --------------------------------------------------------------------------
// Transport.

// ringTransport is the world-wide ring mesh: rings[dst][src] plus one
// wakeup gate per destination.
type ringTransport struct {
	eps   []*endpoint
	rings [][]*ring
	gates []*gate
	pool  *bufpool.Pool
	comps []string // precomputed "mpi.rank<r>" names; formatting them per send allocates
	cfg   RingConfig
	shut  atomic.Bool
}

func (t *ringTransport) send(to int, m Message) error {
	if t.shut.Load() {
		return ErrWorldClosed
	}
	if inj := t.cfg.Injector; inj != nil {
		if err := inj.Check(t.comps[m.Source], "send", t.comps[to]); err != nil {
			return err
		}
	}
	return t.rings[to][m.Source].push(m)
}

// copies reports whether send copies payloads before returning: true in
// the CopyPayloads device emulation (inline or arena copy), false in the
// default zero-copy hand-off.
func (t *ringTransport) copies() bool { return t.cfg.CopyPayloads }

// recvPool exposes the pool inline copies and out-of-line payloads are
// drawn from in copying mode; receivers that Put consumed payloads back
// make the steady-state exchange allocation-free end to end. Nil in
// zero-copy mode, where delivered buffers belong to the application.
func (t *ringTransport) recvPool() *bufpool.Pool {
	if !t.cfg.CopyPayloads {
		return nil
	}
	return t.pool
}

func (t *ringTransport) close() error {
	if t.shut.Swap(true) {
		return nil
	}
	// Wake parked consumers (gates) and parked producers (ring conds) so
	// everyone observes the shutdown.
	for _, g := range t.gates {
		select {
		case g.ch <- struct{}{}:
		default:
		}
	}
	for _, row := range t.rings {
		for _, r := range row {
			r.wmu.Lock()
			r.wcond.Broadcast()
			r.wmu.Unlock()
		}
	}
	return nil
}

// --------------------------------------------------------------------------
// Pump: the consumer side, driven by the receiving rank.

// ringPump adapts a destination's incoming rings to the endpoint's pump
// interface. All methods are called only by the current holder of the
// endpoint's pump role, so next needs no synchronization beyond the
// endpoint mutex that serializes role transfer.
type ringPump struct {
	t      *ringTransport
	dst    int
	next   int // scan start: sticky to the last productive ring
	streak int // consecutive pops from that ring; capped for fairness
}

// pumpStreakLimit caps how many consecutive messages tryPop drains from
// one source ring before rotating the scan start, so a firehose sender
// cannot starve the other sources indefinitely.
const pumpStreakLimit = 64

// tryPop returns the next published message from any incoming ring. The
// scan starts at the ring that last produced a message — a conversation
// with one peer then checks exactly one ring instead of sweeping every
// (mostly idle) source each poll — and rotates away after
// pumpStreakLimit consecutive hits to keep the scan fair.
func (p *ringPump) tryPop() (Message, bool) {
	rings := p.t.rings[p.dst]
	n := len(rings)
	for i := 0; i < n; i++ {
		idx := p.next + i
		if idx >= n {
			idx -= n
		}
		if m, ok := rings[idx].pop(); ok {
			if i == 0 {
				p.streak++
			} else {
				p.streak = 1
			}
			p.next = idx
			if p.streak >= pumpStreakLimit {
				p.streak = 0
				if p.next++; p.next >= n {
					p.next = 0
				}
			}
			return m, true
		}
	}
	return Message{}, false
}

// waitNext blocks until a message is available (returning it) or the
// world shuts down (returning false). Spin-then-park: the gate is armed
// before the last poll, so a publication between poll and park cannot be
// missed (see gate).
func (p *ringPump) waitNext() (Message, bool) {
	g := p.t.gates[p.dst]
	spins := 0
	for {
		if m, ok := p.tryPop(); ok {
			return m, true
		}
		if p.t.shut.Load() {
			return Message{}, false
		}
		spins++
		if spins < ringSpinBudget {
			if spins%ringSpinYield == 0 {
				runtime.Gosched()
			}
			continue
		}
		spins = 0
		g.arm()
		if m, ok := p.tryPop(); ok {
			g.disarm()
			return m, true
		}
		if p.t.shut.Load() {
			g.disarm()
			return Message{}, false
		}
		g.wait()
	}
}
