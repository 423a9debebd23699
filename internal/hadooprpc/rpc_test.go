package hadooprpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startEchoServer returns a running server with the echo protocol and its
// address; cleanup is registered on t.
func startEchoServer(t *testing.T) string {
	t.Helper()
	s := NewServer()
	s.Register(NewEchoProtocol())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func dialEcho(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, EchoProtocolName, EchoProtocolVersion)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEchoRoundTrip(t *testing.T) {
	addr := startEchoServer(t)
	c := dialEcho(t, addr)
	for _, size := range []int{0, 1, 16, 1024, 64 * 1024, 1 << 20} {
		payload := bytes.Repeat([]byte{0x5A}, size)
		got, err := c.Call("recv", payload)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: echo corrupted (%d bytes back)", size, len(got))
		}
	}
}

func TestManySequentialCalls(t *testing.T) {
	addr := startEchoServer(t)
	c := dialEcho(t, addr)
	for i := 0; i < 200; i++ {
		payload := []byte(fmt.Sprintf("call-%d", i))
		got, err := c.Call("recv", payload)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("call %d corrupted: %q", i, got)
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	addr := startEchoServer(t)
	if _, err := Dial(addr, EchoProtocolName, 999); err == nil {
		t.Fatal("handshake with wrong version succeeded")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	addr := startEchoServer(t)
	if _, err := Dial(addr, "no.such.Protocol", 1); err == nil {
		t.Fatal("handshake with unknown protocol succeeded")
	}
}

func TestUnknownMethodError(t *testing.T) {
	addr := startEchoServer(t)
	c := dialEcho(t, addr)
	if _, err := c.Call("nope"); err == nil {
		t.Fatal("unknown method succeeded")
	} else if !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The connection survives a method error.
	if _, err := c.Call("recv", []byte("still alive")); err != nil {
		t.Fatalf("connection died after method error: %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	s := NewServer()
	sentinel := errors.New("deliberate failure")
	s.Register(&Protocol{
		Name:    "p",
		Version: 1,
		Methods: map[string]Handler{
			"fail": func([][]byte) ([]byte, error) { return nil, sentinel },
		},
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, "p", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("fail"); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("handler error lost: %v", err)
	}
}

func TestMultipleParams(t *testing.T) {
	s := NewServer()
	s.Register(&Protocol{
		Name:    "concat",
		Version: 2,
		Methods: map[string]Handler{
			"join": func(params [][]byte) ([]byte, error) {
				var out []byte
				for _, p := range params {
					out = append(out, p...)
				}
				return out, nil
			},
		},
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, "concat", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("join", []byte("a"), []byte("bb"), []byte("ccc"))
	if err != nil || string(got) != "abbccc" {
		t.Fatalf("join = %q, %v", got, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr, EchoProtocolName, EchoProtocolVersion)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				payload := []byte(fmt.Sprintf("%d-%d", id, j))
				got, err := c.Call("recv", payload)
				if err != nil || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("client %d call %d: %q %v", id, j, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallOnClosedClient(t *testing.T) {
	addr := startEchoServer(t)
	c := dialEcho(t, addr)
	c.Close()
	if _, err := c.Call("recv", []byte("x")); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer()
	s.Register(NewEchoProtocol())
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	s := NewServer()
	s.Register(NewEchoProtocol())
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	s.Register(NewEchoProtocol())
}

func TestEncodeCallFrameOverhead(t *testing.T) {
	// The serialized call must carry the protocol name, method, type tag
	// and the payload — the copy amplification the paper attributes RPC
	// slowness to. Verify framing size accounting.
	payload := bytes.Repeat([]byte{1}, 1000)
	frame, err := encodeCall(7, EchoProtocolName, "recv", [][]byte{payload}, nil)
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(frame) - len(payload)
	wantMin := 8 + /* id+len */ 2 + len(EchoProtocolName) + 2 + len("recv") + 4 + 2 + len(paramTypeName) + 4
	if overhead != wantMin {
		t.Errorf("frame overhead = %d, want %d", overhead, wantMin)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	s := NewServer()
	s.Register(NewEchoProtocol())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Speak garbage; server should just drop us, and a follow-up good
	// client must still work.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	conn.Close()

	c := dialEcho(t, addr)
	if _, err := c.Call("recv", []byte("ok")); err != nil {
		t.Fatalf("server wedged by bad header: %v", err)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	addr := startEchoServer(t)
	c, err := Dial(addr, EchoProtocolName, EchoProtocolVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("goroutine-%d-call-%d", g, i))
				got, err := c.Call("recv", payload)
				if err != nil || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("g%d i%d: %q %v", g, i, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientRemoteErrorDoesNotKillConnection(t *testing.T) {
	addr := startEchoServer(t)
	c, err := Dial(addr, EchoProtocolName, EchoProtocolVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("nope"); err == nil {
		t.Fatal("unknown method succeeded")
	}
	got, err := c.Call("recv", []byte("alive"))
	if err != nil || string(got) != "alive" {
		t.Fatalf("connection dead after remote error: %q %v", got, err)
	}
}

func TestClientHandshakeRejectsWrongVersion(t *testing.T) {
	addr := startEchoServer(t)
	if _, err := Dial(addr, EchoProtocolName, 404); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestClientFailsPendingOnServerClose(t *testing.T) {
	s := NewServer()
	entered, block := make(chan struct{}), make(chan struct{})
	s.Register(&Protocol{
		Name:    "slow",
		Version: 1,
		Methods: map[string]Handler{
			"wait": func([][]byte) ([]byte, error) {
				close(entered)
				<-block
				return nil, nil
			},
		},
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("wait")
		done <- err
	}()
	// Once the call has reached the server, kill the server.
	<-entered
	close(block)
	s.Close()
	select {
	case err := <-done:
		_ = err // nil (response raced shutdown) or transport error: both fine
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never completed after server close")
	}
	// Subsequent calls must fail fast rather than hang.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call("wait")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("call on dead connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call on dead connection hung")
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	addr := startEchoServer(t)
	c, err := Dial(addr, EchoProtocolName, EchoProtocolVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("recv", []byte("x")); err == nil {
		t.Fatal("call after close succeeded")
	}
}
