package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// runTCP mirrors Run over a TCP world.
func runTCP(t *testing.T, n int, body func(*Comm) error) {
	t.Helper()
	w, err := NewTCPWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := RunOn(w, body); err != nil {
		t.Fatal(err)
	}
}

// queued is how many delivered messages sit unreceived at rank's endpoint.
func queued(w *World, rank int) int {
	ep := w.eps[rank]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.queue)
}

func TestTCPSendRecv(t *testing.T) {
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("over the wire"))
		}
		data, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "over the wire" || st.Size != 13 {
			return fmt.Errorf("got %q %+v", data, st)
		}
		return nil
	})
}

func TestTCPEmptyMessage(t *testing.T) {
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, nil)
		}
		data, st, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(data) != 0 || st.Size != 0 {
			return fmt.Errorf("empty message arrived as %v %+v", data, st)
		}
		return nil
	})
}

func TestTCPLargeMessage(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 4<<20) // 4 MiB
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 2, payload)
		}
		data, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, payload) {
			return fmt.Errorf("large payload corrupted: %d bytes", len(data))
		}
		return nil
	})
}

func TestTCPOrderingManyMessages(t *testing.T) {
	const n = 500
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				payload := []byte{byte(i), byte(i >> 8)}
				if err := c.Send(1, 3, payload); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			got := int(data[0]) | int(data[1])<<8
			if got != i {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
}

func TestTCPPingPong(t *testing.T) {
	runTCP(t, 2, func(c *Comm) error {
		const rounds = 20
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
					return err
				}
				data, _, err := c.Recv(1, 1)
				if err != nil {
					return err
				}
				if data[0] != byte(i) {
					return fmt.Errorf("echo %d came back as %d", i, data[0])
				}
			}
			return nil
		}
		for i := 0; i < rounds; i++ {
			data, _, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if err := c.Send(0, 1, data); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestTCPCollectives: Barrier, the one collective, over real sockets — its
// reserved tags cross the frame header intact, and a point-to-point message
// sent before it is still there after it.
func TestTCPCollectives(t *testing.T) {
	runTCP(t, 4, func(c *Comm) error {
		next := (c.Rank() + 1) % 4
		if err := c.Send(next, 0, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		data, st, err := c.Recv(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if prev := (c.Rank() + 3) % 4; st.Source != prev || st.Tag != 0 || len(data) != 1 || int(data[0]) != prev {
			return fmt.Errorf("rank %d: after the barriers got %v %+v, want rank %d's message", c.Rank(), data, st, prev)
		}
		return nil
	})
}

func TestTCPAnySourceManySenders(t *testing.T) {
	const senders = 6
	runTCP(t, senders+1, func(c *Comm) error {
		if c.Rank() > 0 {
			return c.Send(0, 5, []byte{byte(c.Rank())})
		}
		seen := make(map[int]bool)
		for i := 0; i < senders; i++ {
			data, st, err := c.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			if int(data[0]) != st.Source || seen[st.Source] {
				return fmt.Errorf("bad/duplicate source %d", st.Source)
			}
			seen[st.Source] = true
		}
		return nil
	})
}

func TestTCPWorldCloseIdempotent(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c := w.Comm(0)
	w.Close()
	if err := c.Send(1, 1, []byte("x")); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestTCPInvalidWorldSize(t *testing.T) {
	if _, err := NewTCPWorld(0); err == nil {
		t.Fatal("NewTCPWorld(0) succeeded")
	}
}

// TestTCPRecvBufferSizedToFrame: a payload the pool has no recycled buffer
// for is read into exactly its own size, not its size class — most receivers
// keep what they receive, and the rounding would be cleared, unread memory.
// (A rendezvous size, so the pool holds no eager send buffer of its class.)
func TestTCPRecvBufferSizedToFrame(t *testing.T) {
	const size = 300_000
	runTCP(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, bytes.Repeat([]byte{0xCD}, size))
		}
		data, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(data) != size || cap(data) != size {
			return fmt.Errorf("%d-byte message arrived in a buffer of len %d cap %d, want both %d", size, len(data), cap(data), size)
		}
		return nil
	})
}

// TestPutBackPingPongAllocFree: on every transport, at sizes on both sides
// of eagerThreshold, a steady-state ping-pong whose receivers hand each
// payload back to RecvBufferPool allocates nothing per round trip. On TCP
// that holds because a put-back buffer makes every later frame read a pool
// hit — an exactly sized 64 or 256 KiB buffer is a native buffer of its
// class, and 1 KiB recurs below the smallest class; the in-process
// transports have no pool (the put is a no-op) and hand the slice over.
func TestPutBackPingPongAllocFree(t *testing.T) {
	const warm, reps = 50, 200
	worlds := []struct {
		name string
		new  func(n int) (*World, error)
	}{
		{"chan", func(n int) (*World, error) { return NewWorld(n), nil }},
		{"ring", func(n int) (*World, error) { return NewRingWorld(n), nil }},
		{"tcp", NewTCPWorld},
	}
	for _, wc := range worlds {
		for _, size := range []int{1 << 10, 64 << 10, 256 << 10} {
			t.Run(fmt.Sprintf("%s/%dKiB", wc.name, size>>10), func(t *testing.T) {
				if raceEnabled && wc.name == "tcp" {
					t.Skip("sync.Pool drops puts under the race detector, so put-back frames are not all reused")
				}
				w, err := wc.new(2)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				var perOp uint64
				err = RunOn(w, func(c *Comm) error {
					pool, peer := c.RecvBufferPool(), 1-c.Rank()
					payload := make([]byte, size)
					var m0, m1 runtime.MemStats
					for i := 0; i < warm+reps; i++ {
						if i == warm && c.Rank() == 0 {
							runtime.ReadMemStats(&m0)
						}
						if c.Rank() == 0 {
							if err := c.Send(peer, 1, payload); err != nil {
								return err
							}
						}
						data, _, err := c.Recv(peer, 1)
						if err != nil {
							return err
						}
						pool.Put(data)
						if c.Rank() == 1 {
							if err := c.Send(peer, 1, payload); err != nil {
								return err
							}
						}
					}
					if c.Rank() == 0 {
						runtime.ReadMemStats(&m1)
						// Whole allocations per round trip, as testing.B reports them.
						perOp = (m1.Mallocs - m0.Mallocs) / reps
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if perOp != 0 {
					t.Fatalf("put-back ping-pong allocates %d times per round trip, want 0", perOp)
				}
			})
		}
	}
}

// TestTCPOutOfRangeSourceClosesConnection writes a frame whose source rank
// does not exist in the world straight onto a rank's listener. The source
// indexes per-rank state on the receive side (mapred's master indexes its
// result slice by Status.Source), so the read loop must drop the connection
// and deliver nothing.
func TestTCPOutOfRangeSourceClosesConnection(t *testing.T) {
	for _, src := range []int{2, -1, 1 << 30} {
		w, err := NewTCPWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := net.Dial("tcp", w.tr.(*tcpTransport).addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, frameHeaderSize+5)
		putFrameHeader(frame, Message{Source: src, Tag: 7, Data: frame[frameHeaderSize:]})
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("source %d: read on the offending connection = %v, want EOF (closed by the receiver)", src, err)
		}
		if n := queued(w, 1); n != 0 {
			t.Fatalf("source %d: the frame was delivered (%d queued)", src, n)
		}
		raw.Close()
		w.Close()
	}
}

// FuzzTCPFrameHeader holds parseFrameHeader to two properties: it inverts
// putFrameHeader for every envelope send accepts, and on arbitrary header
// bytes it returns an error or an in-range source — never a panic, never a
// rank the receive side would index out of range with.
func FuzzTCPFrameHeader(f *testing.F) {
	seed := func(m Message, size uint32, n int) {
		hdr := make([]byte, frameHeaderSize)
		putFrameHeader(hdr, m)
		binary.BigEndian.PutUint32(hdr[8:], size) // a length with no payload behind it
		f.Add(hdr, n)
	}
	seed(Message{Source: 0, Tag: 0}, 0, 1)
	seed(Message{Source: 4, Tag: 0x4D5044}, 520_000, 5)
	seed(Message{Source: 1, Tag: -3}, 1<<32-1, 2)
	seed(Message{Source: 5, Tag: 1}, 10, 5)  // one past the last rank
	seed(Message{Source: -1, Tag: 1}, 10, 5) // AnySource on the wire
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderSize), 8)
	f.Fuzz(func(t *testing.T, hdr []byte, n int) {
		if len(hdr) < frameHeaderSize {
			return
		}
		m, size, err := parseFrameHeader(hdr[:frameHeaderSize], n)
		if err != nil {
			return
		}
		if m.Source < 0 || m.Source >= n {
			t.Fatalf("accepted source %d in a world of %d", m.Source, n)
		}
		// What it accepted re-encodes to the bytes it was given.
		again := make([]byte, frameHeaderSize)
		putFrameHeader(again, m)
		binary.BigEndian.PutUint32(again[8:], size)
		if !bytes.Equal(again, hdr[:frameHeaderSize]) {
			t.Fatalf("header %x parsed to %+v size %d, which encodes to %x", hdr[:frameHeaderSize], m, size, again)
		}
	})
}
