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
	"github.com/ict-repro/mpid/internal/obs"
)

// Client is an RPC proxy for one protocol on one server, the analogue of
// RPC.getProxy in Hadoop. As in Hadoop 0.20's ipc.Client with a single
// connection, calls on one Client are serialized: one call is in flight at
// a time. Concurrency requires multiple clients, which is exactly the
// behaviour that throttles shuffle-over-RPC.
//
// A Client dialed with retry options (Options.MaxAttempts > 1) survives
// transport failures: a failed call closes the connection, and the next
// attempt redials and replays the call after a backoff.
type Client struct {
	addr     string
	protocol string
	version  int64
	opts     Options
	jit      *faults.Jitter

	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	nextID int32
	closed bool
}

// Dial connects with default options (10 s dial timeout, 30 s call
// timeout, no retries): the fail-fast client the benchmarks use.
func Dial(addr, protocol string, version int64) (*Client, error) {
	return DialOptions(addr, protocol, version, Options{})
}

// DialOptions connects to the server, sends the connection header and
// performs the VersionedProtocol handshake for the named protocol.
func DialOptions(addr, protocol string, version int64, opts Options) (*Client, error) {
	c := &Client{
		addr:     addr,
		protocol: protocol,
		version:  version,
		opts:     opts.withDefaults(),
	}
	c.jit = faults.NewJitter(jitterSeed)
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time
	if c.opts.CallTimeout > 0 {
		deadline = time.Now().Add(c.opts.CallTimeout)
	}
	if err := c.connectLocked(deadline); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked dials, sends the connection header and runs the handshake,
// all inside the caller's deadline. On any failure the half-open connection
// is torn down.
func (c *Client) connectLocked(deadline time.Time) error {
	if err := c.opts.Injector.Check(c.opts.Component, "dial", c.addr); err != nil {
		return err
	}
	d := net.Dialer{}
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn = faults.WrapConn(conn, c.opts.Injector, c.opts.Component, c.addr)
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 64*1024)
	c.w = bufio.NewWriterSize(conn, 64*1024)

	// Connection header.
	if _, err := c.w.WriteString(headerMagic); err == nil {
		if err = c.w.WriteByte(headerVersion); err == nil {
			err = c.w.Flush()
		}
	}
	if err != nil {
		c.dropLocked()
		return err
	}
	// VersionedProtocol handshake.
	var ver [8]byte
	binary.BigEndian.PutUint64(ver[:], uint64(c.version))
	got, err := c.callLocked(getProtocolVersionMethod, [][]byte{ver[:]}, nil, deadline)
	if err != nil {
		c.dropLocked()
		return fmt.Errorf("hadooprpc: handshake: %w", err)
	}
	if len(got) != 8 || int64(binary.BigEndian.Uint64(got)) != c.version {
		c.dropLocked()
		return ErrVersionMismatch
	}
	return nil
}

// dropLocked abandons the current connection.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn, c.r, c.w = nil, nil, nil
}

// Call invokes method with the given parameters and returns its value. The
// entire parameter set is serialized into one call frame before anything
// hits the wire — Hadoop's copy-then-send behaviour. With retries enabled,
// a transport failure reconnects and replays the call after a backoff, up
// to Options.MaxAttempts total attempts.
func (c *Client) Call(method string, params ...[]byte) ([]byte, error) {
	return c.CallTraced(nil, method, params...)
}

// CallTraced is Call with a propagated trace context: tctx (an encoded
// trace.Context) rides the call frame as a trailing type-tagged parameter.
// Handlers that do not understand tracing never see it; servers that do
// can parent their spans under the caller's. A nil tctx is a plain Call.
func (c *Client) CallTraced(tctx []byte, method string, params ...[]byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.opts.Metrics
	m.Counter("rpc.calls").Inc()
	m.Counter("rpc.calls." + method).Inc()
	start := time.Now()
	defer func() { m.Timer("rpc.latency").ObserveDuration(time.Since(start)) }()
	// CallTimeout is the whole Call's budget: attempts, reconnects and
	// backoff sleeps all draw from one deadline, so a flapping peer cannot
	// stretch the Call to MaxAttempts fresh timeouts.
	var deadline time.Time
	if c.opts.CallTimeout > 0 {
		deadline = start.Add(c.opts.CallTimeout)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.closed {
			return nil, errors.New("hadooprpc: client closed")
		}
		value, err := c.attemptLocked(method, params, tctx, deadline)
		if err == nil || !retryable(err) {
			if err != nil {
				m.Counter("rpc.errors").Inc()
			}
			return value, err
		}
		lastErr = err
		if attempt >= c.opts.MaxAttempts {
			m.Counter("rpc.errors").Inc()
			return nil, lastErr
		}
		delay := c.opts.Backoff.Delay(attempt, c.jit)
		if !deadline.IsZero() && !time.Now().Add(delay).Before(deadline) {
			m.Counter("rpc.errors").Inc()
			de := &DeadlineError{
				Method: method, Attempts: attempt,
				Elapsed: time.Since(start), Cause: lastErr,
			}
			c.opts.Events.Emit(obs.Event{Type: obs.EvRPCDeadline, Detail: de.Error()})
			return nil, de
		}
		m.Counter("rpc.retries").Inc()
		c.opts.Events.Emit(obs.Event{Type: obs.EvRPCRetry,
			Detail: fmt.Sprintf("%s attempt %d: %v", method, attempt, lastErr)})
		// Sleeping under the lock is deliberate: one call in flight at a
		// time is this client's contract.
		time.Sleep(delay)
	}
}

// attemptLocked is one try: ensure a connection, run the injection point,
// send and await the response. Transport failures poison the connection.
// deadline, when non-zero, is the whole Call's budget expiry.
func (c *Client) attemptLocked(method string, params [][]byte, tctx []byte, deadline time.Time) ([]byte, error) {
	if c.conn == nil {
		if err := c.connectLocked(deadline); err != nil {
			return nil, err
		}
	}
	if err := c.opts.Injector.Check(c.opts.Component, "call", method); err != nil {
		if errors.Is(err, faults.ErrDropped) || faults.IsCrash(err) {
			c.dropLocked()
		}
		return nil, err
	}
	value, err := c.callLocked(method, params, tctx, deadline)
	if err != nil && !errors.Is(err, errRemote) {
		c.dropLocked()
	}
	return value, err
}

// callLocked performs one framed call/response exchange on the live
// connection, bounded by the Call's remaining budget.
func (c *Client) callLocked(method string, params [][]byte, tctx []byte, deadline time.Time) ([]byte, error) {
	id := c.nextID
	c.nextID++
	frame, err := encodeCall(id, c.protocol, method, params, tctx)
	if err != nil {
		return nil, err
	}
	if !deadline.IsZero() {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.w.Write(frame); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	c.opts.Metrics.Counter("rpc.bytes_sent").Add(int64(len(frame)))
	gotID, value, err := readResponse(c.r)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("hadooprpc: response id %d for call %d", gotID, id)
	}
	c.opts.Metrics.Counter("rpc.bytes_recv").Add(int64(len(value)))
	return value, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.r, c.w = nil, nil, nil
	return err
}

// --------------------------------------------------------------------------
// Echo protocol: the benchmark protocol from §II.B. The paper implements "a
// basic class extending from VersionedProtocol ... with a simple recv
// method, which only checks the received data size" and echoes it back for
// ping-pong timing.

// EchoProtocolName is the registered name of the benchmark protocol.
const EchoProtocolName = "org.ict.mpid.EchoProtocol"

// EchoProtocolVersion is its VersionedProtocol version.
const EchoProtocolVersion int64 = 1

// NewEchoProtocol builds the benchmark protocol: recv(data) checks the size
// and returns the data to the invoker.
func NewEchoProtocol() *Protocol {
	return &Protocol{
		Name:    EchoProtocolName,
		Version: EchoProtocolVersion,
		Methods: map[string]Handler{
			"recv": func(params [][]byte) ([]byte, error) {
				if len(params) != 1 {
					return nil, fmt.Errorf("recv wants 1 parameter, got %d", len(params))
				}
				// "only checks the received data size":
				if params[0] == nil {
					return []byte{}, nil
				}
				return params[0], nil
			},
		},
	}
}
