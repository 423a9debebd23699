// Package sim simulates the paper's two MapReduce systems at cluster
// scale on the des kernel: Hadoop 0.20 for Figure 1 and Table I (§II.A)
// and the Hadoop side of Figure 6, and the §IV MPI-D prototype for the
// other side of Figure 6.
//
// Both systems run the same kind of job (a Job: input bytes, map and
// reduce CPU rates, selectivities) on the same testbed. Only the schedule
// differs, which is the one difference Figure 6 measures: RunHadoop
// drives tasks through heartbeats, waves, slow-start and a pull shuffle;
// RunMPID pre-spawns ranks that read, spill and send with blocking MPI
// sends.
//
// Every setting no figure varies is a named constant beside its source.
// What a figure does vary is a Job field, a HadoopJob field (Table I's
// slot configuration, Figure 1's reduce count) or the fabric RunMPID is
// given (the interconnect projection).
package sim

import (
	"fmt"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

// The testbed (§II): 8 nodes — 1 master and 7 workers — each with two
// quad-core Xeon E5620s, 16 GB memory and a single SATA disk, on a
// non-blocking Gigabit Ethernet switch.
const (
	numNodes     = 8
	coresPerNode = 8
	// diskReadBW and diskWriteBW are a 2010-class SATA disk's streaming
	// rates in bytes/s; diskSeek is one random access on it.
	diskReadBW  = 90e6
	diskWriteBW = 70e6
	diskSeek    = 9 * des.Time(1e6)
)

// seekBytes is one seek expressed as the bytes a streaming read of equal
// duration moves, so seeks contend fairly with streaming readers.
var seekBytes = int64(diskSeek.Seconds()*diskReadBW + 0.5)

// Job is what a MapReduce job costs on either system.
type Job struct {
	// InputBytes is the job input size.
	InputBytes int64
	// MapCPUBytesPerSec is the per-core map throughput, including the
	// system's collect/combine/spill work.
	MapCPUBytesPerSec float64
	// ReduceCPUBytesPerSec is the per-core merge + reduce throughput.
	ReduceCPUBytesPerSec float64
	// MapSelectivity is map output bytes per input byte after the
	// combiner: 1.0 for JavaSort, small for WordCount.
	MapSelectivity float64
	// ReduceSelectivity is reduce output bytes per reduce input byte.
	ReduceSelectivity float64
}

// mapOutput returns the intermediate bytes a map over n input bytes emits.
func (j Job) mapOutput(n int64) int64 { return int64(float64(n) * j.MapSelectivity) }

// reduceOutput returns the bytes a reduce over n merged bytes writes.
func (j Job) reduceOutput(n int64) int64 { return int64(float64(n) * j.ReduceSelectivity) }

func (j Job) validate(system string) {
	if j.InputBytes <= 0 {
		panic(fmt.Sprintf("sim: %s InputBytes must be positive, got %d", system, j.InputBytes))
	}
}

// testbed is the modelled cluster bound to one simulation.
//
//   - Cores: a counted resource per node; compute holds one core for
//     bytes/rate seconds. Slot over-subscription (16 map + 16 reduce slots
//     on 8 cores, Table I's last column) therefore queues on cores.
//   - Disk: a read and a write link per node, each processor-shared.
//     Random reads pay their seeks as equivalent streamed bytes.
//   - Network: an in and an out link per node (the two directions of its
//     port), processor-shared; a transfer holds both ends. The switch
//     backplane is non-blocking.
type testbed struct {
	netLatency des.Time
	nodes      []*node
}

// node is one machine of the testbed.
type node struct {
	id                  int
	cores               *des.Resource
	diskRead, diskWrite *des.Link
	nicIn, nicOut       *des.Link
}

// newTestbed builds the cluster on eng with fabric's peak bandwidth on
// every NIC and its zero-byte latency on every message.
func newTestbed(eng *des.Engine, fabric netmodel.Model) *testbed {
	t := &testbed{netLatency: fabric.Latency(0)}
	for i := 0; i < numNodes; i++ {
		t.nodes = append(t.nodes, &node{
			id:        i,
			cores:     des.NewResource(eng, fmt.Sprintf("node%d.cores", i), coresPerNode),
			diskRead:  des.NewLink(eng, fmt.Sprintf("node%d.diskR", i), diskReadBW),
			diskWrite: des.NewLink(eng, fmt.Sprintf("node%d.diskW", i), diskWriteBW),
			nicIn:     des.NewLink(eng, fmt.Sprintf("node%d.nicIn", i), fabric.PeakBandwidth()),
			nicOut:    des.NewLink(eng, fmt.Sprintf("node%d.nicOut", i), fabric.PeakBandwidth()),
		})
	}
	return t
}

// workers returns the nodes tasks run on: node 0 is the master, as in the
// paper.
func (t *testbed) workers() []*node { return t.nodes[1:] }

// compute occupies one core of the node for bytes/bytesPerSec seconds.
func (n *node) compute(p *des.Proc, bytes int64, bytesPerSec float64) {
	if bytes <= 0 || bytesPerSec <= 0 {
		return
	}
	n.cores.Use(p, 1, des.FromSeconds(float64(bytes)/bytesPerSec))
}

// readStream reads bytes sequentially from the node's disk.
func (n *node) readStream(p *des.Proc, bytes int64) { n.diskRead.Transfer(p, bytes) }

// readRandom reads bytes in `accesses` random accesses.
func (n *node) readRandom(p *des.Proc, bytes int64, accesses int) {
	n.diskRead.Transfer(p, bytes+seekEquivalentBytes(accesses))
}

// seekEquivalentBytes converts random accesses into streamed bytes.
func seekEquivalentBytes(accesses int) int64 {
	if accesses <= 0 {
		return 0
	}
	return seekBytes * int64(accesses)
}

// writeStream writes bytes sequentially to the node's disk.
func (n *node) writeStream(p *des.Proc, bytes int64) { n.diskWrite.Transfer(p, bytes) }

// transfer moves bytes between nodes: one-way latency, then a flow that
// holds the sender's out-link and the receiver's in-link at once. A local
// transfer is a memcpy, free next to everything else.
func (t *testbed) transfer(p *des.Proc, from, to *node, bytes int64) {
	if from == to || bytes <= 0 {
		return
	}
	p.Sleep(t.netLatency)
	des.WaitAll(p, from.nicOut.Start(bytes), to.nicIn.Start(bytes))
}
