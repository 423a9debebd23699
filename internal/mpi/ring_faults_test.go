package mpi

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
)

// ringModes runs a subtest in both payload modes: the default zero-copy
// hand-off and the CopyPayloads device emulation. Fault and edge behavior
// must be identical in both.
func ringModes(t *testing.T, cfg RingConfig, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, mode := range []struct {
		name string
		copy bool
	}{{"zerocopy", false}, {"copy", true}} {
		t.Run(mode.name, func(t *testing.T) {
			c := cfg
			c.CopyPayloads = mode.copy
			w := NewRingWorldConfig(2, c)
			defer w.Close()
			fn(t, w)
		})
	}
}

// TestRingWraparoundFIFO pushes far more messages than the ring has slots
// through a pathologically small ring, so every slot's sequence number
// wraps many times. Order and content must survive: a stale slot observed
// across a wrap would break either.
func TestRingWraparoundFIFO(t *testing.T) {
	const total = 300 // 75 wraps of a 4-slot ring
	ringModes(t, RingConfig{Slots: 4, InlineBytes: 64}, func(t *testing.T, w *World) {
		errs := make(chan error, 1)
		go func() {
			c := w.Comm(0)
			for i := 0; i < total; i++ {
				if err := c.Send(1, 5, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		c := w.Comm(1)
		for i := 0; i < total; i++ {
			data, _, err := c.Recv(0, 5)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if want := fmt.Sprintf("msg-%03d", i); string(data) != want {
				t.Fatalf("recv %d = %q, want %q (overtaking across wraparound)", i, data, want)
			}
		}
		if err := <-errs; err != nil {
			t.Fatalf("sender: %v", err)
		}
	})
}

// TestRingArenaExhaustion forces rendezvous sends through an arena much
// smaller than the offered load: producers must block on credit and
// resume as the consumer drains, and a single message larger than the
// whole arena must still be admitted rather than deadlock.
func TestRingArenaExhaustion(t *testing.T) {
	cfg := RingConfig{CopyPayloads: true, InlineBytes: 32, ArenaBytes: 2048}
	w := NewRingWorldConfig(2, cfg)
	defer w.Close()

	const msgs = 16
	payload := make([]byte, 1024) // 1 KiB each through a 2 KiB arena
	for i := range payload {
		payload[i] = byte(i)
	}
	errs := make(chan error, 1)
	go func() {
		c := w.Comm(0)
		for i := 0; i < msgs; i++ {
			if err := c.Send(1, 1, payload); err != nil {
				errs <- err
				return
			}
		}
		// Larger than the entire arena: must borrow the full budget.
		errs <- c.Send(1, 2, make([]byte, 8192))
	}()

	// Let the sender hit the credit wall before draining.
	time.Sleep(20 * time.Millisecond)
	c := w.Comm(1)
	pool := c.RecvBufferPool()
	for i := 0; i < msgs; i++ {
		data, _, err := c.Recv(0, 1)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		for j, b := range data {
			if b != byte(j) {
				t.Fatalf("recv %d corrupted at byte %d", i, j)
			}
		}
		pool.Put(data)
	}
	data, _, err := c.Recv(0, 2)
	if err != nil || len(data) != 8192 {
		t.Fatalf("oversized message: %d bytes, %v", len(data), err)
	}
	pool.Put(data)
	if err := <-errs; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestRingTornSlotNeverObserved storms a tiny ring from concurrent senders
// while the receiver validates every message is internally consistent
// (uniform fill byte, length encoded in the tag). Publication order (fill
// before the sequence store) is what prevents a half-written slot from
// being popped; any tear shows up as a mixed fill. Run under -race this
// also checks the payload hand-off is properly synchronized.
func TestRingTornSlotNeverObserved(t *testing.T) {
	const senders = 3
	const perSender = 150
	w := NewRingWorldConfig(senders+1, RingConfig{Slots: 8, InlineBytes: 128})
	defer w.Close()

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			for i := 0; i < perSender; i++ {
				size := 1 + (i*7+rank)%96
				msg := make([]byte, size)
				for j := range msg {
					msg[j] = byte(rank)
				}
				if err := c.Send(0, size, msg); err != nil {
					t.Errorf("rank %d send %d: %v", rank, i, err)
					return
				}
			}
		}(s)
	}
	c := w.Comm(0)
	for i := 0; i < senders*perSender; i++ {
		data, st, err := c.Recv(AnySource, AnyTag)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(data) != st.Tag {
			t.Fatalf("recv %d: %d bytes from rank %d, tag promised %d (torn slot)", i, len(data), st.Source, st.Tag)
		}
		for j, b := range data {
			if b != byte(st.Source) {
				t.Fatalf("recv %d byte %d = %d, want %d (torn slot)", i, j, b, st.Source)
			}
		}
	}
	wg.Wait()
}

// TestRingSendStorm mirrors the TCP coverage bar: a burst of concurrent
// blocking Sends — one goroutine per message, so each 16-slot ring has 64
// producers racing to claim its slots — from every rank into one receiver,
// all returned, all delivered.
func TestRingSendStorm(t *testing.T) {
	const senders = 3
	const burst = 64
	for _, copyMode := range []bool{false, true} {
		name := "zerocopy"
		if copyMode {
			name = "copy"
		}
		t.Run(name, func(t *testing.T) {
			w := NewRingWorldConfig(senders+1, RingConfig{Slots: 16, CopyPayloads: copyMode})
			defer w.Close()
			var wg sync.WaitGroup
			for s := 1; s <= senders; s++ {
				c := w.Comm(s)
				for i := 0; i < burst; i++ {
					wg.Add(1)
					go func(rank, i int) {
						defer wg.Done()
						if err := c.Send(0, rank, []byte(fmt.Sprintf("r%d-i%03d", rank, i))); err != nil {
							t.Errorf("rank %d send %d: %v", rank, i, err)
						}
					}(s, i)
				}
			}
			c := w.Comm(0)
			got := map[int]int{}
			for i := 0; i < senders*burst; i++ {
				_, st, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				got[st.Source]++
			}
			for s := 1; s <= senders; s++ {
				if got[s] != burst {
					t.Fatalf("rank %d delivered %d/%d", s, got[s], burst)
				}
			}
			wg.Wait()
		})
	}
}

// TestRingAnySourceReceiveWhileSenderDies is the ring version of the TCP
// fault-parity test: one of two senders racing to an ANY_SOURCE receiver
// is killed by an injected fault and the receiver completes with the
// survivor's message.
func TestRingAnySourceReceiveWhileSenderDies(t *testing.T) {
	inj := faults.New(1, faults.Rule{Component: "mpi.rank1", Operation: "send", Action: faults.Drop})
	w := NewRingWorldConfig(3, RingConfig{Injector: inj})
	defer w.Close()

	recvd := make(chan error, 1)
	go func() {
		data, st, err := w.Comm(0).Recv(AnySource, 9)
		if err == nil && (st.Source != 2 || string(data) != "survivor") {
			t.Errorf("recv = %q from rank %d", data, st.Source)
		}
		recvd <- err
	}()
	if err := w.Comm(1).Send(0, 9, []byte("casualty")); !faults.IsInjected(err) {
		t.Fatalf("dead sender's send: %v, want injected", err)
	}
	if err := w.Comm(2).Send(0, 9, []byte("survivor")); err != nil {
		t.Fatalf("surviving sender: %v", err)
	}
	select {
	case err := <-recvd:
		if err != nil {
			t.Fatalf("receiver: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ANY_SOURCE receive hung after sender death")
	}
}

// TestRingCloseUnblocksFullRingProducer fills a receiverless ring until the
// producer parks in waitSpace, then closes the world: the producer must
// fail out with ErrWorldClosed instead of hanging.
func TestRingCloseUnblocksFullRingProducer(t *testing.T) {
	w := NewRingWorldConfig(2, RingConfig{Slots: 4})
	blocked := make(chan error, 1)
	go func() {
		c := w.Comm(0)
		for i := 0; ; i++ {
			if err := c.Send(1, 1, []byte("fill")); err != nil {
				blocked <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // sender is parked on a full ring now
	w.Close()
	select {
	case err := <-blocked:
		if err != ErrWorldClosed {
			t.Fatalf("blocked producer returned %v, want ErrWorldClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still parked after Close")
	}
}
