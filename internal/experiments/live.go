package experiments

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/mpi"
)

// Live-mode measurement of the real Go substrates on loopback. The paper's
// method is followed: ping-pong time divided by two for latency, a fixed
// total moved in fixed-size packets for bandwidth, first iterations
// dropped as warmup, results averaged over repetitions.

// liveReps returns iteration counts scaled by message size so large sizes
// stay affordable.
func liveReps(size int64) int {
	switch {
	case size <= 4<<10:
		return 200
	case size <= 1<<20:
		return 50
	case size <= 16<<20:
		return 10
	default:
		return 4
	}
}

const liveWarmup = 5 // dropped iterations, as the paper drops its first 5

// TransportNames lists the names NewTransportWorld accepts — what every
// -transport flag takes.
var TransportNames = []string{"chan", "ring", "ring+copy", "tcp"}

// NewTransportWorld builds an n-rank world over the named transport:
// "chan" (in-process reference), "ring" (shared-memory-style rings,
// zero-copy hand-off), "ring+copy" (ring with the copying device
// emulation) or "tcp" (loopback TCP, vectored framing).
func NewTransportWorld(name string, n int) (*mpi.World, error) {
	switch name {
	case "chan":
		return mpi.NewWorld(n), nil
	case "ring":
		return mpi.NewRingWorld(n), nil
	case "ring+copy":
		return mpi.NewRingWorldConfig(n, mpi.RingConfig{CopyPayloads: true}), nil
	case "tcp":
		return mpi.NewTCPWorld(n)
	}
	return nil, fmt.Errorf("unknown transport %q (want %s)", name, strings.Join(TransportNames, ", "))
}

// --------------------------------------------------------------------------
// Latency (Figure 2)

type liveLatencyBench struct {
	world   *mpi.World
	c0      *mpi.Comm
	rpcSrv  *hadooprpc.Server
	rpcCli  *hadooprpc.Client
	echoErr chan error
}

// newLiveLatencyBench stands up a 2-rank MPI world over the named
// transport (see NewTransportWorld; "" means the default vectored TCP)
// with an echo loop on rank 1, and a Hadoop RPC echo server with a
// connected client.
func newLiveLatencyBench(transport string) (*liveLatencyBench, error) {
	if transport == "" {
		transport = "tcp"
	}
	w, err := NewTransportWorld(transport, 2)
	if err != nil {
		return nil, err
	}
	b := &liveLatencyBench{world: w, c0: w.Comm(0), echoErr: make(chan error, 1)}
	go func() {
		c1 := w.Comm(1)
		for {
			data, st, err := c1.Recv(0, mpi.AnyTag)
			if err != nil {
				b.echoErr <- err
				return
			}
			if st.Tag == 1 { // shutdown
				b.echoErr <- nil
				return
			}
			if err := c1.Send(0, 0, data); err != nil {
				b.echoErr <- err
				return
			}
		}
	}()

	b.rpcSrv = hadooprpc.NewServer()
	b.rpcSrv.Register(hadooprpc.NewEchoProtocol())
	addr, err := b.rpcSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.rpcCli, err = hadooprpc.Dial(addr, hadooprpc.EchoProtocolName, hadooprpc.EchoProtocolVersion)
	if err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// measure returns the one-way latency (ping-pong / 2) of both substrates
// for one message size.
func (b *liveLatencyBench) measure(size int64) (mpiLat, rpcLat time.Duration, err error) {
	payload := make([]byte, size)
	reps := liveReps(size)

	// MPI ping-pong.
	var mpiTotal time.Duration
	for i := 0; i < reps+liveWarmup; i++ {
		start := time.Now()
		if err := b.c0.Send(1, 0, payload); err != nil {
			return 0, 0, err
		}
		if _, _, err := b.c0.Recv(1, 0); err != nil {
			return 0, 0, err
		}
		if i >= liveWarmup {
			mpiTotal += time.Since(start)
		}
	}
	mpiLat = mpiTotal / time.Duration(2*reps)

	// RPC ping-pong: one Call is a full round trip.
	var rpcTotal time.Duration
	for i := 0; i < reps+liveWarmup; i++ {
		start := time.Now()
		if _, err := b.rpcCli.Call("recv", payload); err != nil {
			return 0, 0, err
		}
		if i >= liveWarmup {
			rpcTotal += time.Since(start)
		}
	}
	rpcLat = rpcTotal / time.Duration(2*reps)
	return mpiLat, rpcLat, nil
}

// Close tears the substrates down.
func (b *liveLatencyBench) Close() {
	if b.c0 != nil {
		b.c0.Send(1, 1, nil) // stop echo loop; error irrelevant on teardown
	}
	if b.world != nil {
		b.world.Close()
	}
	if b.rpcCli != nil {
		b.rpcCli.Close()
	}
	if b.rpcSrv != nil {
		b.rpcSrv.Close()
	}
}

// --------------------------------------------------------------------------
// Bandwidth (Figure 3)

// pushProtocol is the RPC bandwidth protocol: the payload travels as the
// call parameter (the paper "transfer[s] the data through the parameter in
// the RPC method"); the response is a one-byte ack.
func pushProtocol() *hadooprpc.Protocol {
	return &hadooprpc.Protocol{
		Name:    "org.ict.mpid.PushProtocol",
		Version: 1,
		Methods: map[string]hadooprpc.Handler{
			"push": func(params [][]byte) ([]byte, error) {
				if len(params) != 1 {
					return nil, fmt.Errorf("push wants 1 parameter, got %d", len(params))
				}
				return []byte{1}, nil
			},
		},
	}
}

type liveBandwidthBench struct {
	world *mpi.World
	c0    *mpi.Comm

	rpcSrv *hadooprpc.Server
	rpcCli *hadooprpc.Client

	jettySrv  *jetty.Server
	jettyCli  *jetty.Client
	jettyAddr string

	rawLn   net.Listener
	rawConn net.Conn

	sinkErr chan error
}

func newLiveBandwidthBench(transport string) (*liveBandwidthBench, error) {
	if transport == "" {
		transport = "tcp"
	}
	b := &liveBandwidthBench{sinkErr: make(chan error, 4)}
	ok := false
	defer func() {
		if !ok {
			b.Close()
		}
	}()

	// MPI: rank 1 sinks data packets (tag 0) and acks batch ends (tag 2).
	w, err := NewTransportWorld(transport, 2)
	if err != nil {
		return nil, err
	}
	b.world, b.c0 = w, w.Comm(0)
	go func() {
		c1 := w.Comm(1)
		for {
			_, st, err := c1.Recv(0, mpi.AnyTag)
			if err != nil {
				b.sinkErr <- err
				return
			}
			switch st.Tag {
			case 1: // shutdown
				b.sinkErr <- nil
				return
			case 2: // batch end: ack
				if err := c1.Send(0, 2, nil); err != nil {
					b.sinkErr <- err
					return
				}
			}
		}
	}()

	// Hadoop RPC push server.
	b.rpcSrv = hadooprpc.NewServer()
	b.rpcSrv.Register(pushProtocol())
	rpcAddr, err := b.rpcSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if b.rpcCli, err = hadooprpc.Dial(rpcAddr, "org.ict.mpid.PushProtocol", 1); err != nil {
		return nil, err
	}

	// Jetty stream server.
	b.jettySrv = jetty.NewServer(jetty.NewStore())
	if b.jettyAddr, err = b.jettySrv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	b.jettyCli = jetty.NewClient()

	// Raw TCP sink.
	if b.rawLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		conn, err := b.rawLn.Accept()
		if err != nil {
			return
		}
		// Discard everything; reply one byte per 'A' ack request is not
		// needed — sender measures by write completion + final ack byte.
		buf := make([]byte, 1<<20)
		r := bufio.NewReaderSize(conn, 1<<20)
		for {
			if _, err := r.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()
	if b.rawConn, err = net.Dial("tcp", b.rawLn.Addr().String()); err != nil {
		return nil, err
	}
	ok = true
	return b, nil
}

// liveTotal returns the bytes moved per series point, scaled down from the
// paper's 128 MB so small-packet points finish in reasonable wall time.
func liveTotal(packet int64) int64 {
	switch {
	case packet < 256:
		return 1 << 20 // 1 MB in tiny packets is already thousands of ops
	case packet < 64<<10:
		return 16 << 20
	default:
		return 128 << 20
	}
}

// measure produces one Figure 3 row live.
func (b *liveBandwidthBench) measure(packet int64) (Figure3Row, error) {
	row := Figure3Row{Packet: packet}
	payload := make([]byte, packet)
	total := liveTotal(packet)
	n := total / packet
	if n < 1 {
		n = 1
	}

	// Hadoop RPC: one call per packet, serialized — cap the op count so
	// tiny packets finish; bandwidth is a rate so the series stands.
	calls := n
	if calls > 512 {
		calls = 512
	}
	start := time.Now()
	for i := int64(0); i < calls; i++ {
		if _, err := b.rpcCli.Call("push", payload); err != nil {
			return row, fmt.Errorf("rpc push: %w", err)
		}
	}
	row.RPC = float64(calls*packet) / time.Since(start).Seconds()

	// MPI: stream packets, then one acked batch-end marker.
	start = time.Now()
	for i := int64(0); i < n; i++ {
		if err := b.c0.Send(1, 0, payload); err != nil {
			return row, fmt.Errorf("mpi send: %w", err)
		}
	}
	if err := b.c0.Send(1, 2, nil); err != nil {
		return row, err
	}
	if _, _, err := b.c0.Recv(1, 2); err != nil {
		return row, err
	}
	row.MPI = float64(n*packet) / time.Since(start).Seconds()

	// Jetty: stream `total` bytes written server-side in `packet` chunks.
	b.jettyCli.ReadChunk = int(packet)
	if b.jettyCli.ReadChunk < 1 {
		b.jettyCli.ReadChunk = 1
	}
	start = time.Now()
	got, err := b.jettyCli.FetchStream(b.jettyAddr, total, int(packet))
	if err != nil {
		return row, fmt.Errorf("jetty stream: %w", err)
	}
	row.Jetty = float64(got) / time.Since(start).Seconds()

	// Raw TCP: plain writes of packet size.
	start = time.Now()
	for i := int64(0); i < n; i++ {
		if _, err := b.rawConn.Write(payload); err != nil {
			return row, fmt.Errorf("raw tcp: %w", err)
		}
	}
	row.RawTCP = float64(n*packet) / time.Since(start).Seconds()
	return row, nil
}

// Close tears everything down.
func (b *liveBandwidthBench) Close() {
	if b.c0 != nil {
		b.c0.Send(1, 1, nil)
	}
	if b.world != nil {
		b.world.Close()
	}
	if b.rpcCli != nil {
		b.rpcCli.Close()
	}
	if b.rpcSrv != nil {
		b.rpcSrv.Close()
	}
	if b.jettyCli != nil {
		b.jettyCli.Close()
	}
	if b.jettySrv != nil {
		b.jettySrv.Close()
	}
	if b.rawConn != nil {
		b.rawConn.Close()
	}
	if b.rawLn != nil {
		b.rawLn.Close()
	}
}
