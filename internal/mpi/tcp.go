package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/metrics"
)

// NewTCPWorld creates a world of n ranks whose messages travel over real TCP
// sockets on the loopback interface. Rank goroutines still live in this
// process (Go cannot fork MPI-style), but every byte crosses the kernel
// socket path.
func NewTCPWorld(n int) (*World, error) {
	return NewTCPWorldOptions(n, TCPOptions{})
}

// rankComponent is how TCP world ranks are named to a fault injector.
func rankComponent(rank int) string { return fmt.Sprintf("mpi.rank%d", rank) }

// rankComponents precomputes every rank's component name; formatting them
// per send was the transport's last steady-state allocation.
func rankComponents(n int) []string {
	comps := make([]string, n)
	for i := range comps {
		comps[i] = rankComponent(i)
	}
	return comps
}

// TCPOptions configures a TCP world beyond the defaults.
type TCPOptions struct {
	// Injector, when set, gates the transport: "dial" and "send" on the
	// sending rank (peer = destination component), plus "read"/"write"
	// through the wrapped per-pair connections.
	Injector *faults.Injector
	// Metrics, when set, counts framing traffic: mpi.tcp.vectored_writes
	// (writev flushes) and mpi.tcp.vectored_frames (frames they carried).
	Metrics *metrics.Registry
}

// NewTCPWorldOptions creates a TCP world with explicit options.
func NewTCPWorldOptions(n int, opts TCPOptions) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	eps := make([]*endpoint, n)
	for i := range eps {
		eps[i] = newEndpoint()
	}
	tr := &tcpTransport{
		eps:       eps,
		addrs:     make([]string, n),
		listeners: make([]net.Listener, n),
		conns:     make(map[connKey]*tcpConn),
		inj:       opts.Injector,
		metrics:   opts.Metrics,
		comps:     rankComponents(n),
		pool:      bufpool.New(),
	}
	tr.cVecWrites = opts.Metrics.Counter("mpi.tcp.vectored_writes")
	tr.cVecFrames = opts.Metrics.Counter("mpi.tcp.vectored_frames")
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("mpi: listen for rank %d: %w", i, err)
		}
		tr.listeners[i] = ln
		tr.addrs[i] = ln.Addr().String()
		tr.wg.Add(1)
		go tr.acceptLoop(i, ln)
	}
	return &World{size: n, eps: eps, tr: tr}, nil
}

// connKey identifies a directed (source, destination) connection.
type connKey struct{ src, dst int }

// tcpConn serializes writes from concurrent senders on one connection.
// waiters counts senders inside send() for this connection; the last one
// out flushes, so back-to-back small sends from concurrent senders coalesce
// into one syscall instead of one flush per frame.
//
// Queued eager frames accumulate as pooled contiguous header+payload
// buffers in pend, and a flush ships the whole batch through net.Buffers —
// one writev syscall, no intermediate copy. A rendezvous send joins the
// same writev: pending eager frames, its header (the persistent rhdr
// scratch) and the caller's payload go out as one vector.
type tcpConn struct {
	mu        sync.Mutex
	c         net.Conn
	pend      net.Buffers // queued eager frames (pooled hdr+payload buffers)
	pendBytes int
	vec       net.Buffers // writev scratch, rebuilt per flush, capacity reused
	rhdr      [frameHeaderSize]byte
	waiters   atomic.Int32
}

// tcpTransport maintains a lazy full mesh of connections. One connection per
// directed pair keeps per-pair FIFO ordering, which the matching semantics
// rely on.
type tcpTransport struct {
	eps       []*endpoint
	addrs     []string
	listeners []net.Listener
	inj       *faults.Injector // nil injects nothing
	pool      *bufpool.Pool    // frame payload buffers, shared with receivers
	comps     []string         // precomputed "mpi.rank<r>" injector names
	metrics   *metrics.Registry
	// Pre-resolved counters: Registry.Counter is a lock+map lookup, too
	// heavy per flush. Both are nil-safe without a registry.
	cVecWrites, cVecFrames *metrics.Counter

	mu     sync.Mutex
	conns  map[connKey]*tcpConn
	closed bool
	wg     sync.WaitGroup
}

// frameHeader is src(int32) tag(int32) length(uint32).
const frameHeaderSize = 12

// eagerThreshold is the eager/rendezvous split point. Messages below it are
// copied into a pooled frame buffer queued on the connection (eager: the
// sender's buffer is free on return, flushes batch across back-to-back
// sends); messages at or above it go out straight from the caller's buffer
// in the same vectored write as whatever is queued, skipping the copy — the
// moral equivalent of MPI's rendezvous protocol for large realigned
// partitions.
const eagerThreshold = 64 << 10

// tcpFlushBytes caps how many eager bytes queue on a connection before a
// sender flushes even with other senders still waiting, bounding the
// batch the last-writer-out heuristic can accumulate.
const tcpFlushBytes = 256 << 10

func (t *tcpTransport) acceptLoop(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(rank, conn)
	}
}

// readLoop delivers one connection's frames to rank's endpoint until the
// peer closes or sends a header that cannot be a frame of this world.
//
// A payload is read into a recycled buffer when the pool has one and into an
// exactly sized one otherwise: most receivers keep what they receive (MPI-D's
// grouped Recv holds every run until its merge ends, and hands the reduce
// function slices of them), and a kept buffer rounded up to its size class is
// cleared memory nobody reads. The reader holds one eager
// frame, so an eager message arrives in one read and a rendezvous payload is
// read from the socket straight into its buffer.
func (t *tcpTransport) readLoop(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, eagerThreshold)
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		m, size, err := parseFrameHeader(hdr[:], len(t.eps))
		if err != nil {
			return
		}
		if size > 0 {
			if m.Data = t.pool.Lookup(int(size)); m.Data == nil {
				m.Data = make([]byte, size)
			}
			if _, err := io.ReadFull(r, m.Data); err != nil {
				return
			}
		}
		if err := t.eps[rank].deliver(m); err != nil {
			return
		}
	}
}

func (t *tcpTransport) connFor(src, dst int) (*tcpConn, error) {
	key := connKey{src, dst}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrWorldClosed
	}
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	if err := t.inj.Check(t.comps[src], "dial", t.comps[dst]); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", t.addrs[dst])
	if err != nil {
		return nil, fmt.Errorf("mpi: dial rank %d: %w", dst, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency benchmark sends tiny frames
	}
	wrapped := faults.WrapConn(conn, t.inj, t.comps[src], t.comps[dst])
	c := &tcpConn{c: wrapped}
	t.conns[key] = c
	return c, nil
}

// dropConn forgets a connection whose injected fault closed it, so a later
// send to the same pair redials instead of writing into a dead socket.
func (t *tcpTransport) dropConn(src, dst int, c *tcpConn) {
	t.mu.Lock()
	if t.conns != nil && t.conns[connKey{src, dst}] == c {
		delete(t.conns, connKey{src, dst})
	}
	t.mu.Unlock()
	c.c.Close()
}

// putFrameHeader encodes m's envelope into b[:frameHeaderSize].
func putFrameHeader(b []byte, m Message) {
	binary.BigEndian.PutUint32(b[0:4], uint32(int32(m.Source)))
	binary.BigEndian.PutUint32(b[4:8], uint32(int32(m.Tag)))
	binary.BigEndian.PutUint32(b[8:12], uint32(len(m.Data)))
}

// parseFrameHeader is putFrameHeader's inverse for a world of n ranks: the
// envelope without its payload, and the payload's length. The source rank
// reaches the receiver as Status.Source, which callers index per-rank state
// with and send replies to (mapred's master answers a split request at it),
// and it names the sender in this transport's per-pair connection table — so
// one outside [0, n) is an error. Any length is legal, as in send.
func parseFrameHeader(b []byte, n int) (m Message, size uint32, err error) {
	m.Source = int(int32(binary.BigEndian.Uint32(b[0:4])))
	m.Tag = int(int32(binary.BigEndian.Uint32(b[4:8])))
	if m.Source < 0 || m.Source >= n {
		return Message{}, 0, fmt.Errorf("mpi: frame from rank %d in a world of %d", m.Source, n)
	}
	return m, binary.BigEndian.Uint32(b[8:12]), nil
}

func (t *tcpTransport) send(to int, m Message) error {
	if m.Tag > (1<<31-1) || m.Tag < -(1<<31) {
		return fmt.Errorf("mpi: tag %d does not fit the TCP frame", m.Tag)
	}
	if int64(len(m.Data)) > (1<<32 - 1) {
		return errors.New("mpi: message over 4 GiB cannot be framed")
	}
	if t.inj != nil {
		if err := t.inj.Check(t.comps[m.Source], "send", t.comps[to]); err != nil {
			return err
		}
	}
	c, err := t.connFor(m.Source, to)
	if err != nil {
		return err
	}
	if err = t.sendVectored(c, m); err != nil {
		// The frame may be half-written; the connection cannot carry
		// another message. Forget it so a retry redials.
		t.dropConn(m.Source, to, c)
	}
	return err
}

// sendVectored frames m through writev. Eager frames queue as pooled
// contiguous hdr+payload buffers and the last writer out (or a batch
// crossing tcpFlushBytes) ships them all in one vectored write; a
// rendezvous send joins the pending batch, its header and the caller's
// payload into a single writev — one syscall, zero intermediate copies of
// the large payload.
func (t *tcpTransport) sendVectored(c *tcpConn, m Message) error {
	n := len(m.Data)
	c.waiters.Add(1)
	c.mu.Lock()
	var err error
	if n >= eagerThreshold {
		putFrameHeader(c.rhdr[:], m)
		c.vec = append(append(c.vec[:0], c.pend...), c.rhdr[:], m.Data)
		err = t.flushVecLocked(c, len(c.pend)+1)
		c.waiters.Add(-1)
	} else {
		buf := t.pool.Get(frameHeaderSize + n)
		putFrameHeader(buf, m)
		copy(buf[frameHeaderSize:], m.Data)
		c.pend = append(c.pend, buf)
		c.pendBytes += len(buf)
		// Last writer out flushes (see tcpConn); a sender that leaves
		// others queued on c.mu skips it — one of them will carry this
		// frame out, or fail and drop the connection for everyone.
		if last := c.waiters.Add(-1) == 0; last || c.pendBytes >= tcpFlushBytes {
			c.vec = append(c.vec[:0], c.pend...)
			err = t.flushVecLocked(c, len(c.pend))
		}
	}
	c.mu.Unlock()
	return err
}

// flushVecLocked ships c.vec in one vectored write (writev on an unwrapped
// *net.TCPConn; a fault-wrapped connection degrades to one Write per
// buffer, keeping every injection point) and recycles the pooled eager
// frame buffers. Caller holds c.mu and has built c.vec from c.pend plus
// any rendezvous tail.
func (t *tcpTransport) flushVecLocked(c *tcpConn, frames int) error {
	if len(c.vec) == 0 {
		return nil
	}
	// WriteTo consumes the Buffers it is invoked on (nils entries,
	// advances the header). Calling through the persistent c.vec field
	// keeps the receiver heap-resident (a local Buffers variable would
	// escape and cost an allocation per flush); base preserves the
	// pre-advance header so the backing array is reused next flush.
	base := c.vec
	_, err := c.vec.WriteTo(c.c)
	for _, b := range c.pend {
		t.pool.Put(b)
	}
	c.pend = c.pend[:0]
	c.pendBytes = 0
	c.vec = base[:0]
	t.cVecWrites.Inc()
	t.cVecFrames.Add(int64(frames))
	return err
}

// copies reports that the TCP transport serializes payloads into the socket
// before send returns, so callers may reuse their buffers.
func (t *tcpTransport) copies() bool { return true }

// recvPool exposes the pool readLoop looks frame payloads up in. Receivers
// that return consumed payloads close the allocation loop: steady-state
// frame reads become pool hits (see Comm.RecvBufferPool for which sizes).
func (t *tcpTransport) recvPool() *bufpool.Pool { return t.pool }

func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, c := range conns {
		c.c.Close()
	}
	t.wg.Wait()
	return nil
}
