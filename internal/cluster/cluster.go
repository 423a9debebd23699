// Package cluster models the paper's experimental platform on the DES
// kernel: 8 nodes, each with two quad-core Xeon E5620s, 16 GB memory and a
// single SATA disk, interconnected by a non-blocking Gigabit Ethernet
// switch (§II). The Hadoop and MPI-D system simulators schedule work onto
// these modelled resources.
//
// Resource model:
//
//   - Cores: a counted resource per node; compute phases hold one core for
//     work/throughput seconds. Slot over-subscription (e.g. 16 map + 16
//     reduce slots on 8 cores, Table I's last column) therefore queues on
//     cores, which is exactly the effect the paper's configuration sweep
//     exposes.
//   - Disk: two fair-share links per node (read and write). Small random
//     reads — the per-map-output fetches of shuffle — pay a seek cost,
//     expressed in equivalent bytes so they compose with streaming traffic
//     on the same link.
//   - Network: per-node in and out links (the two directions of the GigE
//     port) with processor sharing; a transfer holds both ends. The switch
//     backplane is non-blocking, as an 8-port GigE switch is.
//
// Config describes the testbed; Default matches the paper's hardware.
package cluster

import (
	"fmt"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

// Config describes the modelled hardware.
type Config struct {
	// Nodes is the machine count (the paper uses 8: 1 master + 7 workers).
	Nodes int
	// CoresPerNode is the CPU core count per node (2x quad-core = 8).
	CoresPerNode int
	// DiskReadBW and DiskWriteBW are streaming disk rates in bytes/sec.
	DiskReadBW, DiskWriteBW float64
	// DiskSeek is the cost of one random access, paid by small reads.
	DiskSeek des.Time
	// NICBandwidth is the per-direction effective TCP goodput of the GigE
	// port in bytes/sec.
	NICBandwidth float64
	// NetLatency is the one-way wire+stack latency for a message.
	NetLatency des.Time
}

// Default returns the paper's testbed: 8 nodes, 8 cores each, one
// 2010-class SATA disk, Gigabit Ethernet.
func Default() Config {
	return Config{
		Nodes:        8,
		CoresPerNode: 8,
		DiskReadBW:   90e6,
		DiskWriteBW:  70e6,
		DiskSeek:     9 * des.Time(1e6), // 9 ms (2010-class SATA)
		NICBandwidth: 111e6,             // matches netmodel.MPI peak goodput
		NetLatency:   netmodel.MPI().Latency(0),
	}
}

// Cluster is an instantiated set of nodes bound to a DES engine.
type Cluster struct {
	Eng   *des.Engine
	Cfg   Config
	Nodes []*Node
}

// Node models one machine.
type Node struct {
	ID        int
	Cores     *des.Resource
	DiskRead  *des.Link
	DiskWrite *des.Link
	NICIn     *des.Link
	NICOut    *des.Link

	cfg *Config
}

// New builds a cluster on the engine.
func New(eng *des.Engine, cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid config %+v", cfg))
	}
	c := &Cluster{Eng: eng, Cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		c.Nodes = append(c.Nodes, &Node{
			ID:        i,
			Cores:     des.NewResource(eng, fmt.Sprintf("node%d.cores", i), cfg.CoresPerNode),
			DiskRead:  des.NewLink(eng, fmt.Sprintf("node%d.diskR", i), cfg.DiskReadBW),
			DiskWrite: des.NewLink(eng, fmt.Sprintf("node%d.diskW", i), cfg.DiskWriteBW),
			NICIn:     des.NewLink(eng, fmt.Sprintf("node%d.nicIn", i), cfg.NICBandwidth),
			NICOut:    des.NewLink(eng, fmt.Sprintf("node%d.nicOut", i), cfg.NICBandwidth),
			cfg:       &c.Cfg,
		})
	}
	return c
}

// Compute occupies one core of the node for work/rate seconds.
func (n *Node) Compute(p *des.Proc, bytes int64, bytesPerSec float64) {
	if bytes <= 0 || bytesPerSec <= 0 {
		return
	}
	d := des.FromSeconds(float64(bytes) / bytesPerSec)
	n.Cores.Use(p, 1, d)
}

// ReadStream reads bytes sequentially from the node's disk.
func (n *Node) ReadStream(p *des.Proc, bytes int64) {
	n.DiskRead.Transfer(p, bytes)
}

// ReadRandom reads bytes in `accesses` random accesses: the seek cost is
// converted to equivalent streamed bytes so it contends fairly with
// concurrent streaming readers.
func (n *Node) ReadRandom(p *des.Proc, bytes int64, accesses int) {
	n.DiskRead.Transfer(p, bytes+n.SeekEquivalentBytes(accesses))
}

// SeekEquivalentBytes converts a number of random accesses into the bytes a
// streaming read of equal duration would move.
func (n *Node) SeekEquivalentBytes(accesses int) int64 {
	if accesses <= 0 {
		return 0
	}
	perSeek := int64(n.cfg.DiskSeek.Seconds()*n.cfg.DiskReadBW + 0.5)
	return perSeek * int64(accesses)
}

// WriteStream writes bytes sequentially to the node's disk.
func (n *Node) WriteStream(p *des.Proc, bytes int64) {
	n.DiskWrite.Transfer(p, bytes)
}

// Transfer moves bytes from one node to another: the flow holds the sender
// out-link and the receiver in-link concurrently (completing when both have
// moved the bytes) plus the one-way latency. Local transfers pay a memcpy
// at memory speed, approximated as free relative to everything else.
func (c *Cluster) Transfer(p *des.Proc, from, to *Node, bytes int64) {
	if from == to || bytes <= 0 {
		return
	}
	p.Sleep(c.Cfg.NetLatency)
	out := from.NICOut.Start(bytes)
	in := to.NICIn.Start(bytes)
	des.WaitAll(p, out, in)
}
