package hadooprpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/obs"
)

// Client is an RPC proxy for one protocol on one server, the analogue of
// RPC.getProxy over Hadoop 0.20's ipc.Client: many goroutines share one
// connection, and calls are matched to responses by call id. The
// connection's own reader goroutine receives each response and hands it to
// its waiting caller, as ipc.Client's Connection thread runs
// receiveResponse(). Note what multiplexing does NOT buy: the server
// processes a connection's calls serially and responses return in
// submission order, so bulk-payload calls still queue behind each other.
// The bandwidth pathology of Figure 3 is unchanged; only small control
// calls benefit from sharing.
//
// With Options.MaxAttempts > 1 the client is self-healing: a call that
// fails at the transport level (broken connection, timeout, injected
// fault) abandons the connection, redials and replays after an
// exponential backoff with jitter. Remote handler errors are returned
// immediately — the server answered; retrying cannot change its mind.
type Client struct {
	addr     string
	protocol string
	version  int64
	opts     Options
	jit      *faults.Jitter

	mu     sync.Mutex
	cur    *conn // nil when disconnected
	closed bool
}

// conn is one generation of the underlying connection. Reconnecting
// replaces the whole struct, so stale callers fail cleanly instead of
// racing a half-reset state.
type conn struct {
	nc net.Conn
	w  *bufio.Writer

	mu      sync.Mutex // guards writes, id allocation, pending, readErr
	nextID  int32
	pending map[int32]chan result
	readErr error
}

type result struct {
	value []byte
	err   error
}

var (
	// errConnAbandoned marks a connection torn down locally (timeout or
	// injected drop); pending calls fail with it.
	errConnAbandoned = errors.New("hadooprpc: connection abandoned")
	errClosed        = errors.New("hadooprpc: client closed")
)

// Dial connects with default options (10 s dial timeout, 30 s call
// timeout, no retries): the fail-fast client the benchmarks use.
func Dial(addr, protocol string, version int64) (*Client, error) {
	return DialOptions(addr, protocol, version, Options{})
}

// DialOptions connects, sends the connection header and performs the
// VersionedProtocol handshake, returning a client safe for concurrent use.
// The initial dial is fail-fast even with retries enabled; retries govern
// subsequent Calls.
func DialOptions(addr, protocol string, version int64, opts Options) (*Client, error) {
	c := &Client{
		addr:     addr,
		protocol: protocol,
		version:  version,
		opts:     opts.withDefaults(),
		jit:      faults.NewJitter(jitterSeed),
	}
	if _, err := c.ensureConn(c.deadline(time.Now())); err != nil {
		return nil, err
	}
	return c, nil
}

// deadline is the expiry of a budget starting at start; zero when
// CallTimeout is disabled.
func (c *Client) deadline(start time.Time) time.Time {
	if c.opts.CallTimeout <= 0 {
		return time.Time{}
	}
	return start.Add(c.opts.CallTimeout)
}

// ensureConn returns the live connection, dialing a fresh one if needed;
// the dial and handshake of a fresh connection run inside the caller's
// deadline.
func (c *Client) ensureConn(deadline time.Time) (*conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	if c.cur != nil && c.cur.alive() {
		return c.cur, nil
	}
	cn, err := c.dialLocked(deadline)
	if err != nil {
		return nil, err
	}
	c.cur = cn
	return cn, nil
}

// dialLocked establishes one connection generation: TCP connect, header,
// read loop, handshake.
func (c *Client) dialLocked(deadline time.Time) (*conn, error) {
	if err := c.opts.Injector.Check(component, "dial", c.addr); err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: dialTimeout, Deadline: deadline}
	nc, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc = faults.WrapConn(nc, c.opts.Injector, component, c.addr)
	cn := &conn{
		nc:      nc,
		w:       bufio.NewWriterSize(nc, 64*1024),
		pending: make(map[int32]chan result),
	}
	if _, err := cn.w.WriteString(headerMagic); err == nil {
		if err = cn.w.WriteByte(headerVersion); err == nil {
			err = cn.w.Flush()
		}
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	go cn.readLoop()

	var ver [8]byte
	binary.BigEndian.PutUint64(ver[:], uint64(c.version))
	got, err := c.callOn(cn, getProtocolVersionMethod, [][]byte{ver[:]}, deadline)
	if err != nil {
		cn.kill(errConnAbandoned)
		return nil, fmt.Errorf("hadooprpc: handshake: %w", err)
	}
	if len(got) != 8 || int64(binary.BigEndian.Uint64(got)) != c.version {
		cn.kill(errConnAbandoned)
		return nil, ErrVersionMismatch
	}
	return cn, nil
}

// alive reports whether the connection generation can still carry calls.
func (cn *conn) alive() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.readErr == nil
}

// kill poisons the generation: the socket closes, the read loop exits and
// pending calls fail.
func (cn *conn) kill(err error) {
	cn.mu.Lock()
	if cn.readErr == nil {
		cn.readErr = err
	}
	for id, ch := range cn.pending {
		ch <- result{err: err}
		delete(cn.pending, id)
	}
	cn.mu.Unlock()
	cn.nc.Close()
}

// readLoop delivers responses to their waiting callers by call id.
func (cn *conn) readLoop() {
	r := bufio.NewReaderSize(cn.nc, 64*1024)
	for {
		id, value, err := readResponse(r)
		if err != nil && !IsRemote(err) {
			// Connection-level failure: fail every pending call.
			cn.kill(err)
			return
		}
		cn.mu.Lock()
		ch, ok := cn.pending[id]
		delete(cn.pending, id)
		cn.mu.Unlock()
		if ok {
			ch <- result{value: value, err: err}
		}
	}
}

// callOn performs one call/response exchange on a connection generation,
// bounded by the Call's remaining budget (a zero deadline waits forever). A
// timeout abandons the generation and fails with os.ErrDeadlineExceeded:
// once the response stream is out of sync with the caller's patience, the
// safe move is Hadoop's — reconnect.
func (c *Client) callOn(cn *conn, method string, params [][]byte, deadline time.Time) ([]byte, error) {
	ch := make(chan result, 1)

	cn.mu.Lock()
	if cn.readErr != nil {
		err := cn.readErr
		cn.mu.Unlock()
		return nil, err
	}
	id := cn.nextID
	cn.nextID++
	cn.pending[id] = ch
	frame, err := encodeCall(id, c.protocol, method, params)
	if err == nil {
		_, err = cn.w.Write(frame)
		if err == nil {
			err = cn.w.Flush()
		}
	}
	if err != nil {
		delete(cn.pending, id)
		cn.mu.Unlock()
		return nil, err
	}
	cn.mu.Unlock()
	c.opts.Metrics.Counter("rpc.bytes_sent").Add(int64(len(frame)))

	var expired <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case res := <-ch:
		c.opts.Metrics.Counter("rpc.bytes_recv").Add(int64(len(res.value)))
		return res.value, res.err
	case <-expired:
		cn.kill(errConnAbandoned)
		return nil, os.ErrDeadlineExceeded
	}
}

// invalidate discards a dead generation so the next attempt redials.
func (c *Client) invalidate(cn *conn) {
	c.mu.Lock()
	if c.cur == cn {
		c.cur = nil
	}
	c.mu.Unlock()
	cn.kill(errConnAbandoned)
}

// Call invokes method with the given parameters and returns its value; it
// is safe to call from many goroutines at once. The entire parameter set is
// serialized into one call frame before anything hits the wire — Hadoop's
// copy-then-send behaviour. Transport failures are retried on a fresh
// connection up to Options.MaxAttempts total attempts.
func (c *Client) Call(method string, params ...[]byte) ([]byte, error) {
	m := c.opts.Metrics
	m.Counter("rpc.calls").Inc()
	m.Counter("rpc.calls." + method).Inc()
	start := time.Now()
	defer func() { m.Timer("rpc.latency").ObserveDuration(time.Since(start)) }()
	// One total budget for the whole Call — attempts, redials and backoff
	// sleeps included — so a flapping peer cannot stretch a Call to
	// MaxAttempts fresh timeouts.
	deadline := c.deadline(start)
	for attempt := 1; ; attempt++ {
		value, err := c.attempt(method, params, deadline)
		if err == nil || !retryable(err) {
			if err != nil {
				m.Counter("rpc.errors").Inc()
			}
			return value, err
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			m.Counter("rpc.errors").Inc()
			return nil, err
		}
		// The budget is spent if it has run out, or would run out during
		// the backoff before another attempt.
		var delay time.Duration
		if attempt < c.opts.MaxAttempts {
			delay = c.opts.Backoff.Delay(attempt, c.jit)
		}
		if !deadline.IsZero() && !time.Now().Add(delay).Before(deadline) {
			m.Counter("rpc.errors").Inc()
			de := &DeadlineError{
				Method: method, Attempts: attempt,
				Elapsed: time.Since(start), Cause: err,
			}
			c.opts.Events.Emit(obs.Event{Type: obs.EvRPCDeadline, Detail: de.Error()})
			return nil, de
		}
		if attempt >= c.opts.MaxAttempts {
			m.Counter("rpc.errors").Inc()
			return nil, err
		}
		m.Counter("rpc.retries").Inc()
		c.opts.Events.Emit(obs.Event{Type: obs.EvRPCRetry,
			Detail: fmt.Sprintf("%s attempt %d: %v", method, attempt, err)})
		time.Sleep(delay)
	}
}

// attempt is one try of a Call: injection point, connection, exchange.
func (c *Client) attempt(method string, params [][]byte, deadline time.Time) ([]byte, error) {
	if err := c.opts.Injector.Check(component, "call", method); err != nil {
		if errors.Is(err, faults.ErrDropped) {
			c.mu.Lock()
			cn := c.cur
			c.mu.Unlock()
			if cn != nil {
				c.invalidate(cn)
			}
		}
		return nil, err
	}
	cn, err := c.ensureConn(deadline)
	if err != nil {
		return nil, err
	}
	value, err := c.callOn(cn, method, params, deadline)
	if err != nil && !IsRemote(err) {
		c.invalidate(cn)
	}
	return value, err
}

// Close tears the connection down; pending calls fail. It is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cn := c.cur
	c.cur = nil
	c.mu.Unlock()
	if cn != nil {
		cn.kill(errClosed)
	}
	return nil
}
