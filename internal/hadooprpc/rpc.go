// Package hadooprpc is a from-scratch reimplementation of the Hadoop 0.20
// RPC mechanism the paper benchmarks against MPI (§II.B): versioned
// protocols registered on a TCP server, invoked by method name with
// Writable-serialized parameters, one response per call.
//
// The wire anatomy follows org.apache.hadoop.ipc in the essentials that
// determine its performance behaviour:
//
//   - a connection header ("hrpc" magic + version) on connect;
//   - a client-side GetProtocolVersion handshake before user calls
//     (VersionedProtocol semantics);
//   - each call framed as callID + length + UTF method name + parameter
//     count + per-parameter type-tagged Writable encoding — the payload is
//     serialized into the call frame rather than streamed, which is exactly
//     why the paper measures RPC bandwidth topping out ~100x below wire
//     speed: every "packet" is a fully-materialized, copied, type-tagged
//     call;
//   - responses framed as callID + status + value.
//
// Unlike HTTP shuffle, a call's parameters and return value transit the
// connection as single buffers; there is no streaming path. The package is
// used directly by the Figure 2/3 harness (echo protocol) and, as a cost
// model, by the Hadoop simulator's heartbeat traffic.
package hadooprpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Wire constants, mirroring Hadoop's ipc.Server.
const (
	headerMagic   = "hrpc"
	headerVersion = 3 // Hadoop 0.20.2's CURRENT_VERSION

	statusSuccess = 0
	statusError   = 1

	// maxFrame guards servers against absurd allocations; 128 MB covers
	// the paper's largest benchmark message (64 MB) with framing slack.
	maxFrame = 128 << 20
)

// getProtocolVersionMethod is the reserved VersionedProtocol handshake.
const getProtocolVersionMethod = "getProtocolVersion"

// Errors.
var (
	ErrBadHeader       = errors.New("hadooprpc: bad connection header")
	ErrUnknownMethod   = errors.New("hadooprpc: unknown method")
	ErrVersionMismatch = errors.New("hadooprpc: protocol version mismatch")

	// errRemote marks a per-call error reported by the server (the
	// connection stays usable), as opposed to a transport failure.
	errRemote = errors.New("hadooprpc: remote error")
)

// Handler is one RPC method: parameters in, value out. Parameters arrive
// fully materialized, as in Hadoop.
type Handler func(params [][]byte) ([]byte, error)

// TracedHandler is a handler that also receives the caller's encoded trace
// context (nil when the caller sent none). The context is opaque to this
// package; internal/trace decodes it.
type TracedHandler func(tctx []byte, params [][]byte) ([]byte, error)

// Protocol is a named, versioned set of methods — the analogue of a Java
// interface extending VersionedProtocol.
type Protocol struct {
	// Name identifies the protocol (Java would use the interface FQN).
	Name string
	// Version must match between client and server, as VersionedProtocol
	// demands.
	Version int64
	// Methods maps method name to handler.
	Methods map[string]Handler
	// Traced maps method name to context-aware handler; a method present
	// here takes precedence over Methods. Plain handlers interoperate with
	// traced callers regardless — the dispatcher strips the trace parameter
	// before they see the call.
	Traced map[string]TracedHandler
}

// Server serves registered protocols over TCP.
type Server struct {
	mu        sync.Mutex
	protocols map[string]*Protocol
	ln        net.Listener
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	closed    bool
}

// NewServer creates a server with no protocols registered.
func NewServer() *Server {
	return &Server{
		protocols: make(map[string]*Protocol),
		conns:     make(map[net.Conn]struct{}),
	}
}

// track registers a live connection; it reports false if the server is
// already closed (the caller must drop the connection).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// Register adds a protocol. Registering a duplicate name panics: it is a
// wiring bug, not a runtime condition.
func (s *Server) Register(p *Protocol) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.protocols[p.Name]; dup {
		panic(fmt.Sprintf("hadooprpc: protocol %q registered twice", p.Name))
	}
	s.protocols[p.Name] = p
}

// Listen binds the server to addr ("127.0.0.1:0" for an ephemeral port) and
// starts serving. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			if err := s.serveConn(conn); err != nil && err != io.EOF {
				// Connection-level failures are the client's problem;
				// the server just drops the connection, as Hadoop does.
				_ = err
			}
		}()
	}
}

// Close stops the listener, terminates active connections and waits for
// their serving goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) lookup(name string) *Protocol {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.protocols[name]
}

// serveConn handles one client connection: header check, then a call loop.
func (s *Server) serveConn(conn net.Conn) error {
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriterSize(conn, 64*1024)

	// Connection header: "hrpc" + version byte.
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if string(hdr[:4]) != headerMagic || hdr[4] != headerVersion {
		return ErrBadHeader
	}

	for {
		call, err := readCall(r)
		if err != nil {
			return err
		}
		value, callErr := s.dispatch(call)
		if err := writeResponse(w, call.id, value, callErr); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

func (s *Server) dispatch(c *call) ([]byte, error) {
	p := s.lookup(c.protocol)
	if p == nil {
		return nil, fmt.Errorf("hadooprpc: unknown protocol %q", c.protocol)
	}
	if c.method == getProtocolVersionMethod {
		// Handshake: parameter 0 is the client's expected version.
		if len(c.params) != 1 || len(c.params[0]) != 8 {
			return nil, fmt.Errorf("hadooprpc: malformed %s", getProtocolVersionMethod)
		}
		clientVer := int64(binary.BigEndian.Uint64(c.params[0]))
		if clientVer != p.Version {
			return nil, fmt.Errorf("%w: client %d, server %d", ErrVersionMismatch, clientVer, p.Version)
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], uint64(p.Version))
		return out[:], nil
	}
	if th, ok := p.Traced[c.method]; ok {
		return th(c.tctx, c.params)
	}
	h, ok := p.Methods[c.method]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, c.protocol, c.method)
	}
	return h(c.params)
}

// call is a decoded invocation frame.
type call struct {
	id       int32
	protocol string
	method   string
	params   [][]byte
	tctx     []byte // trace context carried by a traceParamTypeName param
}

// --------------------------------------------------------------------------
// Wire encoding. Strings are UTF-8 with uint16 length (Java DataOutput
// writeUTF); parameters are "ObjectWritable"-style: a type-name string then
// a uint32 length then the bytes. The copy-amplification of this format is
// the behaviour under test, so it is kept faithful rather than optimized.

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("hadooprpc: string too long (%d)", len(s))
	}
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	if _, err := w.Write(l[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.BigEndian.Uint16(l[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// paramTypeName tags every parameter, as ObjectWritable writes the declared
// class name before the instance bytes.
const paramTypeName = "org.apache.hadoop.io.BytesWritable"

// traceParamTypeName tags the optional trailing trace-context parameter.
// The type tag is the wire discriminator: handlers never see the trace
// parameter (the dispatcher routes it separately), and parameters with a
// type tag this server does not understand are skipped rather than
// delivered — which is what lets traced and untraced peers interoperate.
const traceParamTypeName = "org.ict.mpid.TraceContext"

// encodeCall materializes the full call frame: callID, then frame length,
// then protocol, method, parameters and — when tctx is non-empty — the
// trailing trace-context parameter under its own type tag.
func encodeCall(id int32, protocol, method string, params [][]byte, tctx []byte) ([]byte, error) {
	// Body first (Hadoop writes length-prefixed frames).
	body := &lenBuffer{}
	if err := writeString(body, protocol); err != nil {
		return nil, err
	}
	if err := writeString(body, method); err != nil {
		return nil, err
	}
	n := len(params)
	if len(tctx) > 0 {
		n++
	}
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(n))
	body.Write(cnt[:])
	writeParam := func(typeName string, p []byte) error {
		if err := writeString(body, typeName); err != nil {
			return err
		}
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(p)))
		body.Write(l[:])
		body.Write(p) // the copy Hadoop pays serializing into the frame
		return nil
	}
	for _, p := range params {
		if err := writeParam(paramTypeName, p); err != nil {
			return nil, err
		}
	}
	if len(tctx) > 0 {
		if err := writeParam(traceParamTypeName, tctx); err != nil {
			return nil, err
		}
	}
	frame := make([]byte, 8+body.Len())
	binary.BigEndian.PutUint32(frame[0:4], uint32(id))
	binary.BigEndian.PutUint32(frame[4:8], uint32(body.Len()))
	copy(frame[8:], body.Bytes())
	return frame, nil
}

// lenBuffer is a minimal append-only buffer (bytes.Buffer without the
// reader half).
type lenBuffer struct{ b []byte }

func (lb *lenBuffer) Write(p []byte) (int, error) { lb.b = append(lb.b, p...); return len(p), nil }
func (lb *lenBuffer) Len() int                    { return len(lb.b) }
func (lb *lenBuffer) Bytes() []byte               { return lb.b }

var _ io.Writer = (*lenBuffer)(nil)

func readCall(r io.Reader) (*call, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	id := int32(binary.BigEndian.Uint32(hdr[0:4]))
	size := binary.BigEndian.Uint32(hdr[4:8])
	if size > maxFrame {
		return nil, fmt.Errorf("hadooprpc: frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	br := &sliceReader{b: body}
	protocol, err := readString(br)
	if err != nil {
		return nil, err
	}
	method, err := readString(br)
	if err != nil {
		return nil, err
	}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(cnt[:])
	if n > 1024 {
		return nil, fmt.Errorf("hadooprpc: %d parameters is implausible", n)
	}
	params := make([][]byte, 0, n)
	var tctx []byte
	for i := uint32(0); i < n; i++ {
		typeName, err := readString(br)
		if err != nil {
			return nil, err
		}
		var l [4]byte
		if _, err := io.ReadFull(br, l[:]); err != nil {
			return nil, err
		}
		plen := binary.BigEndian.Uint32(l[:])
		if int64(plen) > int64(len(br.b)-br.pos) {
			return nil, fmt.Errorf("hadooprpc: parameter of %d bytes overruns its frame", plen)
		}
		p := make([]byte, plen) // the copy Hadoop pays deserializing
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, err
		}
		switch typeName {
		case paramTypeName:
			params = append(params, p)
		case traceParamTypeName:
			tctx = p
		default:
			// An unknown parameter type from a newer peer: skip it rather
			// than hand handlers a parameter they cannot interpret.
		}
	}
	return &call{id: id, protocol: protocol, method: method, params: params, tctx: tctx}, nil
}

type sliceReader struct {
	b   []byte
	pos int
}

func (sr *sliceReader) Read(p []byte) (int, error) {
	if sr.pos >= len(sr.b) {
		return 0, io.EOF
	}
	n := copy(p, sr.b[sr.pos:])
	sr.pos += n
	return n, nil
}

func writeResponse(w io.Writer, id int32, value []byte, callErr error) error {
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(id))
	if callErr != nil {
		hdr[4] = statusError
		msg := callErr.Error()
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(msg)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := io.WriteString(w, msg)
		return err
	}
	hdr[4] = statusSuccess
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(value)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

func readResponse(r io.Reader) (int32, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	id := int32(binary.BigEndian.Uint32(hdr[0:4]))
	status := hdr[4]
	size := binary.BigEndian.Uint32(hdr[5:9])
	if size > maxFrame {
		return id, nil, fmt.Errorf("hadooprpc: response of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return id, nil, err
	}
	if status != statusSuccess {
		return id, nil, fmt.Errorf("%w: %s", errRemote, body)
	}
	return id, body, nil
}
