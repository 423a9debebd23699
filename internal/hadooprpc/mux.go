package hadooprpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
)

// MuxClient is the multiplexing RPC client: many goroutines share one
// connection, calls are matched to responses by call id — the behaviour of
// Hadoop's ipc.Client, where all threads of a tasktracker funnel through
// one connection per (address, protocol) pair. Note what multiplexing does
// NOT buy: the server processes a connection's calls serially and responses
// return in submission order, so bulk-payload calls still queue behind each
// other. The bandwidth pathology of Figure 3 is unchanged; only small
// control calls benefit from sharing.
//
// With Options.MaxAttempts > 1 the client is self-healing: a call that
// fails at the transport level (broken connection, timeout, injected
// fault) abandons the connection, redials and replays after an
// exponential backoff with jitter. Remote handler errors are returned
// immediately — the server answered; retrying cannot change its mind.
type MuxClient struct {
	addr     string
	protocol string
	version  int64
	opts     Options
	jit      *faults.Jitter

	mu     sync.Mutex
	cur    *muxConn // nil when disconnected
	closed bool
}

// muxConn is one generation of the underlying connection. Reconnecting
// replaces the whole struct, so stale callers fail cleanly instead of
// racing a half-reset state.
type muxConn struct {
	conn net.Conn
	w    *bufio.Writer

	mu      sync.Mutex // guards writes, id allocation, pending, readErr
	nextID  int32
	pending map[int32]chan muxResult
	readErr error
}

type muxResult struct {
	value []byte
	err   error
}

// errConnAbandoned marks a connection torn down locally (timeout or
// injected drop); pending calls fail with it.
var errConnAbandoned = errors.New("hadooprpc: connection abandoned")

// DialMux connects with default options (timeouts on, retries off) and
// performs the handshake, returning a client safe for concurrent use.
func DialMux(addr, protocol string, version int64) (*MuxClient, error) {
	return DialMuxOptions(addr, protocol, version, Options{})
}

// DialMuxOptions connects, sends the connection header and performs the
// VersionedProtocol handshake. The initial dial is fail-fast even with
// retries enabled; retries govern subsequent Calls.
func DialMuxOptions(addr, protocol string, version int64, opts Options) (*MuxClient, error) {
	c := &MuxClient{
		addr:     addr,
		protocol: protocol,
		version:  version,
		opts:     opts.withDefaults(),
	}
	c.jit = faults.NewJitter(jitterSeed)
	var deadline time.Time
	if c.opts.CallTimeout > 0 {
		deadline = time.Now().Add(c.opts.CallTimeout)
	}
	if _, err := c.ensureConn(deadline); err != nil {
		return nil, err
	}
	return c, nil
}

// ensureConn returns the live connection, dialing a fresh one if needed;
// the handshake on a fresh dial runs inside the caller's deadline.
func (c *MuxClient) ensureConn(deadline time.Time) (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("hadooprpc: client closed")
	}
	if c.cur != nil && c.cur.alive() {
		return c.cur, nil
	}
	mc, err := c.dialLocked(deadline)
	if err != nil {
		return nil, err
	}
	c.cur = mc
	return mc, nil
}

// dialLocked establishes one connection generation: TCP connect, header,
// read loop, handshake.
func (c *MuxClient) dialLocked(deadline time.Time) (*muxConn, error) {
	if err := c.opts.Injector.Check(c.opts.Component, "dial", c.addr); err != nil {
		return nil, err
	}
	d := net.Dialer{}
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn = faults.WrapConn(conn, c.opts.Injector, c.opts.Component, c.addr)
	mc := &muxConn{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, 64*1024),
		pending: make(map[int32]chan muxResult),
	}
	if _, err := mc.w.WriteString(headerMagic); err == nil {
		if err = mc.w.WriteByte(headerVersion); err == nil {
			err = mc.w.Flush()
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	go mc.readLoop()

	var ver [8]byte
	binary.BigEndian.PutUint64(ver[:], uint64(c.version))
	got, err := c.callOn(mc, getProtocolVersionMethod, [][]byte{ver[:]}, nil, deadline)
	if err != nil {
		mc.kill(errConnAbandoned)
		return nil, fmt.Errorf("hadooprpc: handshake: %w", err)
	}
	if len(got) != 8 || int64(binary.BigEndian.Uint64(got)) != c.version {
		mc.kill(errConnAbandoned)
		return nil, ErrVersionMismatch
	}
	return mc, nil
}

// alive reports whether the connection generation can still carry calls.
func (mc *muxConn) alive() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.readErr == nil
}

// kill poisons the generation: the socket closes, the read loop exits and
// pending calls fail.
func (mc *muxConn) kill(err error) {
	mc.mu.Lock()
	if mc.readErr == nil {
		mc.readErr = err
	}
	for id, ch := range mc.pending {
		ch <- muxResult{err: err}
		delete(mc.pending, id)
	}
	mc.mu.Unlock()
	mc.conn.Close()
}

// readLoop delivers responses to their waiting callers by call id.
func (mc *muxConn) readLoop() {
	r := bufio.NewReaderSize(mc.conn, 64*1024)
	for {
		id, value, err := readResponse(r)
		if err != nil && !isRemoteError(err) {
			// Connection-level failure: fail every pending call.
			mc.kill(err)
			return
		}
		mc.mu.Lock()
		ch, ok := mc.pending[id]
		delete(mc.pending, id)
		mc.mu.Unlock()
		if ok {
			ch <- muxResult{value: value, err: err}
		}
	}
}

// isRemoteError distinguishes a per-call remote error (connection remains
// usable) from a transport failure.
func isRemoteError(err error) bool {
	return err != nil && errors.Is(err, errRemote)
}

// callOn performs one call/response exchange on a connection generation,
// bounded by the Call's remaining budget (a zero deadline waits forever). A
// timeout abandons the generation: once the response stream is out of sync
// with the caller's patience, the safe move is Hadoop's — reconnect.
func (c *MuxClient) callOn(mc *muxConn, method string, params [][]byte, tctx []byte, deadline time.Time) ([]byte, error) {
	ch := make(chan muxResult, 1)

	mc.mu.Lock()
	if mc.readErr != nil {
		err := mc.readErr
		mc.mu.Unlock()
		return nil, err
	}
	id := mc.nextID
	mc.nextID++
	mc.pending[id] = ch
	frame, err := encodeCall(id, c.protocol, method, params, tctx)
	if err == nil {
		_, err = mc.w.Write(frame)
		if err == nil {
			err = mc.w.Flush()
		}
	}
	if err != nil {
		delete(mc.pending, id)
		mc.mu.Unlock()
		return nil, err
	}
	mc.mu.Unlock()
	c.opts.Metrics.Counter("rpc.bytes_sent").Add(int64(len(frame)))

	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case res := <-ch:
			c.opts.Metrics.Counter("rpc.bytes_recv").Add(int64(len(res.value)))
			return res.value, res.err
		case <-timer.C:
			mc.kill(errConnAbandoned)
			return nil, fmt.Errorf("hadooprpc: call %s timed out after %v", method, c.opts.CallTimeout)
		}
	}
	res := <-ch
	c.opts.Metrics.Counter("rpc.bytes_recv").Add(int64(len(res.value)))
	return res.value, res.err
}

// invalidate discards a dead generation so the next attempt redials.
func (c *MuxClient) invalidate(mc *muxConn) {
	c.mu.Lock()
	if c.cur == mc {
		c.cur = nil
	}
	c.mu.Unlock()
	mc.kill(errConnAbandoned)
}

// Call invokes method with the given parameters; it is safe to call from
// many goroutines at once. Transport failures are retried on a fresh
// connection up to Options.MaxAttempts total attempts.
func (c *MuxClient) Call(method string, params ...[]byte) ([]byte, error) {
	return c.CallTraced(nil, method, params...)
}

// CallTraced is Call with a propagated trace context: tctx (an encoded
// trace.Context) rides the call frame as a trailing type-tagged parameter
// that untraced handlers never see. A nil tctx is a plain Call.
func (c *MuxClient) CallTraced(tctx []byte, method string, params ...[]byte) ([]byte, error) {
	m := c.opts.Metrics
	m.Counter("rpc.calls").Inc()
	m.Counter("rpc.calls." + method).Inc()
	start := time.Now()
	defer func() { m.Timer("rpc.latency").ObserveDuration(time.Since(start)) }()
	// One total budget for the whole Call — attempts, redials and backoff
	// sleeps included — so a flapping peer cannot stretch a Call to
	// MaxAttempts fresh timeouts.
	var deadline time.Time
	if c.opts.CallTimeout > 0 {
		deadline = start.Add(c.opts.CallTimeout)
	}
	for attempt := 1; ; attempt++ {
		value, err := c.attempt(method, params, tctx, deadline)
		if err == nil || !retryable(err) {
			if err != nil {
				m.Counter("rpc.errors").Inc()
			}
			return value, err
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || attempt >= c.opts.MaxAttempts {
			m.Counter("rpc.errors").Inc()
			return nil, err
		}
		delay := c.opts.Backoff.Delay(attempt, c.jit)
		if !deadline.IsZero() && !time.Now().Add(delay).Before(deadline) {
			m.Counter("rpc.errors").Inc()
			return nil, &DeadlineError{
				Method: method, Attempts: attempt,
				Elapsed: time.Since(start), Cause: err,
			}
		}
		m.Counter("rpc.retries").Inc()
		time.Sleep(delay)
	}
}

// attempt is one try of a Call: injection point, connection, exchange.
func (c *MuxClient) attempt(method string, params [][]byte, tctx []byte, deadline time.Time) ([]byte, error) {
	if err := c.opts.Injector.Check(c.opts.Component, "call", method); err != nil {
		if errors.Is(err, faults.ErrDropped) {
			c.mu.Lock()
			mc := c.cur
			c.mu.Unlock()
			if mc != nil {
				c.invalidate(mc)
			}
		}
		return nil, err
	}
	mc, err := c.ensureConn(deadline)
	if err != nil {
		return nil, err
	}
	value, err := c.callOn(mc, method, params, tctx, deadline)
	if err != nil && !isRemoteError(err) {
		c.invalidate(mc)
	}
	return value, err
}

// Close tears the connection down; pending calls fail.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	mc := c.cur
	c.cur = nil
	c.mu.Unlock()
	if mc != nil {
		mc.kill(errors.New("hadooprpc: client closed"))
	}
	return nil
}
