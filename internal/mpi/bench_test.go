package mpi

import (
	"fmt"
	"testing"
)

// benchPingPong drives a 2-rank ping-pong of size-byte messages over w and
// reports ns/op and allocs/op for the full send→recv path. Received
// buffers are returned to the transport's receive pool when it has one
// (TCP, ring copy mode) — the 0 allocs/op target only holds when consumers
// recycle, which MPI-D's grouped receiver, aliasing its runs, does not.
func benchPingPong(b *testing.B, w *World, size int) {
	payload := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		c := w.Comm(1)
		pool := c.RecvBufferPool()
		echo := make([]byte, size)
		for {
			data, _, err := c.Recv(0, AnyTag)
			if err != nil {
				done <- nil // world closed: benchmark over
				return
			}
			stop := data[0] == 1
			pool.Put(data)
			if stop {
				done <- nil
				return
			}
			if err := c.Send(0, 0, echo); err != nil {
				done <- err
				return
			}
		}
	}()
	c := w.Comm(0)
	pool := c.RecvBufferPool()
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(1, 0, payload); err != nil {
			b.Fatal(err)
		}
		data, _, err := c.Recv(1, AnyTag)
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(data)
	}
	b.StopTimer()
	stop := make([]byte, size)
	stop[0] = 1
	if err := c.Send(1, 0, stop); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRingRoundtrip ping-pongs over the shared-memory-style ring
// transport in both payload modes: the default zero-copy hand-off and the
// CopyPayloads device emulation (inline slot copy for eager sizes, pooled
// arena for rendezvous sizes). Both must stay at 0 allocs/op.
func BenchmarkRingRoundtrip(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  RingConfig
	}{
		{"zerocopy", RingConfig{}},
		{"copy", RingConfig{CopyPayloads: true}},
	} {
		for _, size := range []int{16, 1 << 10, 32 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", mode.name, size), func(b *testing.B) {
				w := NewRingWorldConfig(2, mode.cfg)
				defer w.Close()
				benchPingPong(b, w, size)
			})
		}
	}
}

// BenchmarkChanRoundtrip is the in-process chan-transport baseline the
// ring is read against (its reason to exist is a small-message p50 below
// chan's; ROADMAP item 5).
func BenchmarkChanRoundtrip(b *testing.B) {
	for _, size := range []int{16, 1 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w := NewWorld(2)
			defer w.Close()
			benchPingPong(b, w, size)
		})
	}
}

// BenchmarkTCPVectoredSend ping-pongs over the vectored (writev) TCP
// framing at an eager and a rendezvous size. Rendezvous is where writev
// pays most visibly: header and payload leave in one syscall.
func BenchmarkTCPVectoredSend(b *testing.B) {
	for _, size := range []int{1 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			w, err := NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			benchPingPong(b, w, size)
		})
	}
}

// BenchmarkTCPRoundtrip ping-pongs one message over the loopback TCP
// transport, crossing the eager/rendezvous threshold as the size sweeps.
// allocs/op is the number to watch: pooled frame reads mean the receive
// side should not allocate per message once the pool is warm. The payload
// is Put back after each hop, which is this benchmark's choice — MPI-D's
// grouped receiver keeps its frames — and every size here is a pool class
// size, so the exactly sized buffer a miss is read into files back under
// the class the next read looks in (BenchmarkTCPStream has the other case).
func BenchmarkTCPRoundtrip(b *testing.B) {
	for _, size := range []int{1 << 10, 32 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			w, err := NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			c0, c1 := w.Comm(0), w.Comm(1)
			pool := c0.RecvBufferPool()
			done := make(chan error, 1)
			go func() {
				for {
					data, _, err := c1.Recv(0, AnyTag)
					if err != nil {
						done <- nil // world closed: benchmark over
						return
					}
					stop := data[0] == 1
					err = c1.Send(0, 1, data[:1])
					pool.Put(data)
					if err != nil || stop {
						done <- err
						return
					}
				}
			}()
			payload := make([]byte, size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i == b.N-1 {
					payload[0] = 1 // tell the echo goroutine to stop
				}
				if err := c0.Send(1, 1, payload); err != nil {
					b.Fatal(err)
				}
				ack, _, err := c0.Recv(1, 1)
				if err != nil {
					b.Fatal(err)
				}
				pool.Put(ack)
			}
			b.StopTimer()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTCPStream pushes messages one way to a receiver that returns each
// payload to RecvBufferPool, at a pool class size and at a realigned
// partition's typical size, which is not one. It keeps a trade visible: a
// frame the pool has no buffer for is read into exactly its size, so the
// 520 000-byte buffers file one class below the one the next read looks in
// and every read allocates (2.0–2.6 GB/s against 2.8–3.6 GB/s when misses
// were rounded up to the class, EXPERIMENTS.md "Pay for a sort job's bytes
// once") — the price of not clearing 1 MiB per 0.5 MB frame for the
// receivers that keep their frames, which is all of MPI-D.
func BenchmarkTCPStream(b *testing.B) {
	for _, size := range []int{256 << 10, 520_000} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w, err := NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			err = RunOn(w, func(c *Comm) error {
				if c.Rank() == 0 {
					payload := make([]byte, size)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := c.Send(1, 1, payload); err != nil {
							return err
						}
					}
					_, _, err := c.Recv(1, 2) // timed until the receiver has it all
					b.StopTimer()
					return err
				}
				pool := c.RecvBufferPool()
				for i := 0; i < b.N; i++ {
					data, _, err := c.Recv(0, 1)
					if err != nil {
						return err
					}
					pool.Put(data)
				}
				return c.Send(0, 2, nil)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
