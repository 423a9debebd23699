// Package mpidsim simulates the paper's §IV MPI-D system — the simulation
// counterpart of the real library in internal/core — at cluster scale, for
// the Figure 6 comparison against Hadoop.
//
// The modelled differences against hadoopsim are exactly the paper's design
// points:
//
//   - processes are pre-spawned by mpiexec once (one Init cost), so there
//     is no per-task JVM start, no heartbeat scheduling wait and no task
//     waves: "the mapper processes will scan input data records
//     continuously";
//   - input is distributed across nodes and read locally, as the paper
//     arranges ("we distribute all input data across all nodes to
//     guarantee the data accessing locally as in Hadoop");
//   - the map side buffers pairs in a hash table, combines locally, spills
//     realigned contiguous partitions and ships them with plain MPI sends;
//     with Async on, sends overlap the next chunk's compute;
//   - reducers receive with wildcard MPI_Recv; their inbound NIC is the
//     natural large-scale bottleneck when few reducers serve many mappers
//     (the paper runs 49 mappers against a single reducer).
package mpidsim

import (
	"fmt"

	"github.com/ict-repro/mpid/internal/cluster"
	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

// Params configures one simulated MPI-D job.
type Params struct {
	// Cluster is the hardware model; Default() matches the paper.
	Cluster cluster.Config
	// InputBytes is the job input size, spread evenly over the mappers.
	InputBytes int64
	// NumMappers is the mapper process count (the paper uses 49 over 7
	// worker nodes); NumReducers the reducer count (the paper uses 1).
	NumMappers, NumReducers int
	// MapCPUBytesPerSec is per-core map throughput including the MPI-D
	// library work (hashing, combining, realignment).
	MapCPUBytesPerSec float64
	// ReduceCPUBytesPerSec is per-core reduce/merge throughput.
	ReduceCPUBytesPerSec float64
	// CombinedSelectivity is intermediate bytes per input byte after the
	// local combiner.
	CombinedSelectivity float64
	// SpillBuffer is the input bytes consumed per spill round (the hash
	// table threshold translated to input terms).
	SpillBuffer int64
	// InitTime is the one-time mpiexec launch + MPI_D_Init cost.
	InitTime des.Time
	// Async overlaps a spill's sends with the next chunk's compute
	// (MPI_Isend adoption, §IV.A future work). The paper's prototype is
	// synchronous; the ablation bench flips this.
	Async bool
	// CodedReplication models Coded MapReduce's shuffle (PAPERS.md) at
	// cluster scale: every split is mapped by r nodes, so each mapper
	// pays r× the input read and map CPU, and every coded multicast
	// serves r destinations per transmission, so the bytes a mapper ships
	// divide by r. The reducers merge the same logical intermediate data
	// either way. 0 or 1 means plain (uncoded) shuffle. The model is what
	// states the regime: coding wins end to end only when the network,
	// not the map scan, bounds the job (EXPERIMENTS.md "Figure 6 (coded)";
	// the live prototype's last numbers are under "Retired baselines").
	CodedReplication int
	// Pipelined overlaps the reducer's merge with the map phase: each
	// mapper's share of the intermediate data is merged as that mapper
	// completes, instead of waiting for every mapper before touching any
	// data — the simulation mirror of the live engine's pipelined shuffle
	// (internal/shuffle), where background merge passes run while copies
	// are in flight. Only the final merge tail remains after the last
	// mapper finishes.
	Pipelined bool
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.Cluster.Nodes == 0 {
		p.Cluster = cluster.Default()
	}
	if p.NumMappers == 0 {
		p.NumMappers = 49
	}
	if p.NumReducers == 0 {
		p.NumReducers = 1
	}
	if p.MapCPUBytesPerSec == 0 {
		p.MapCPUBytesPerSec = 3.5e6
	}
	if p.ReduceCPUBytesPerSec == 0 {
		p.ReduceCPUBytesPerSec = 30e6
	}
	if p.CombinedSelectivity == 0 {
		p.CombinedSelectivity = 0.05
	}
	if p.SpillBuffer == 0 {
		p.SpillBuffer = 100 * netmodel.MB
	}
	if p.InitTime == 0 {
		p.InitTime = des.FromSeconds(0.4)
	}
	return p
}

// WordCount returns the §IV.C MPI-D WordCount configuration: 49 mapper
// processes and 1 reducer process over 7 worker nodes, plus the rank-0
// master. Map throughput is higher than Hadoop's because the MPI-D runner
// has no per-record Writable object churn and no spill-sort machinery, but
// it still pays the library's hash/combine/realign work.
func WordCount(inputBytes int64) Params {
	return Params{
		InputBytes:           inputBytes,
		NumMappers:           49,
		NumReducers:          1,
		MapCPUBytesPerSec:    3.5e6,
		ReduceCPUBytesPerSec: 20e6,
		CombinedSelectivity:  0.05,
	}.withDefaults()
}

// ProcStat records one process's activity.
type ProcStat struct {
	Rank       int
	Node       int
	Start, End des.Time
	BytesRead  int64
	BytesSent  int64
}

// Report is the outcome of one simulated MPI-D job.
type Report struct {
	Params       Params
	JobTime      des.Time
	MapEnd       des.Time
	Mappers      []ProcStat
	BytesShuffle int64
}

// Run simulates the job and returns the report.
func Run(p Params) *Report {
	p = p.withDefaults()
	if p.InputBytes <= 0 {
		panic(fmt.Sprintf("mpidsim: InputBytes must be positive, got %d", p.InputBytes))
	}
	rep := int64(p.CodedReplication)
	if rep < 1 {
		rep = 1
	}
	eng := des.New()
	cl := cluster.New(eng, p.Cluster)
	workers := cl.Nodes[1:] // rank 0's node is the master, as in the paper

	report := &Report{Params: p, Mappers: make([]ProcStat, 0, p.NumMappers)}

	// Reducers are placed round-robin from the last worker backwards so a
	// single reducer does not share its node's NIC with mapper locality
	// hot spots more than necessary.
	reducerNode := func(r int) *cluster.Node {
		return workers[(len(workers)-1-r%len(workers)+len(workers))%len(workers)]
	}

	share := p.InputBytes / int64(p.NumMappers)
	extra := p.InputBytes % int64(p.NumMappers)

	// Per-reducer completion latches: reducers finish when every mapper
	// signalled completion and all inbound bytes arrived (transfers hold
	// the reducer NIC, so arrival time is modelled by the Transfer calls).
	mapperDone := make([]*des.Done, p.NumMappers)
	for i := range mapperDone {
		mapperDone[i] = des.NewDone(eng)
	}

	var mapEnd des.Time
	var shuffleTotal int64

	for m := 0; m < p.NumMappers; m++ {
		m := m
		node := workers[m%len(workers)]
		myShare := share
		if int64(m) < extra {
			myShare++
		}
		eng.Go(fmt.Sprintf("mapper-%d", m), func(pr *des.Proc) {
			pr.Sleep(p.InitTime)
			stat := ProcStat{Rank: m + 1, Node: node.ID, Start: pr.Now()}
			var pendingOut, pendingIn *des.Done
			remaining := myShare
			for remaining > 0 {
				chunk := p.SpillBuffer
				if chunk > remaining {
					chunk = remaining
				}
				remaining -= chunk
				// Coded replication: the same input range is read and
				// mapped on r nodes, so each mapper's share costs r× in
				// read and CPU...
				node.ReadStream(pr, chunk*rep)
				node.Compute(pr, chunk*rep, p.MapCPUBytesPerSec)
				// ...and buys an r× reduction in shipped bytes: each
				// coded multicast crosses the sender's link once but
				// serves r destinations.
				out := int64(float64(chunk) * p.CombinedSelectivity / float64(rep))
				stat.BytesRead += chunk * rep
				stat.BytesSent += out
				// Realigned partitions ship to each reducer; even split.
				per := out / int64(p.NumReducers)
				if per < 1 && out > 0 {
					per = 1
				}
				for r := 0; r < p.NumReducers; r++ {
					dst := reducerNode(r)
					if dst == node || per == 0 {
						continue
					}
					if p.Async {
						// Overlap: wait for the previous spill's send,
						// then launch this one and keep computing.
						if pendingOut != nil {
							des.WaitAll(pr, pendingOut, pendingIn)
						}
						pendingOut, pendingIn = cl.TransferStart(node, dst, per)
					} else {
						cl.Transfer(pr, node, dst, per)
					}
				}
			}
			if pendingOut != nil {
				des.WaitAll(pr, pendingOut, pendingIn)
			}
			stat.End = pr.Now()
			if stat.End > mapEnd {
				mapEnd = stat.End
			}
			shuffleTotal += stat.BytesSent
			report.Mappers = append(report.Mappers, stat)
			mapperDone[m].Complete()
		})
	}

	// Reducer processes: merge + reduce their share of the intermediate
	// data. Synchronous reducers wait for every mapper before touching any
	// data; pipelined reducers consume each mapper's share as its
	// completion latch fires, so merge CPU overlaps the mapper tail and
	// only the last share is paid after MapEnd.
	totalIntermediate := int64(float64(p.InputBytes) * p.CombinedSelectivity)
	perReducer := totalIntermediate / int64(p.NumReducers)
	for r := 0; r < p.NumReducers; r++ {
		r := r
		node := reducerNode(r)
		eng.Go(fmt.Sprintf("reducer-%d", r), func(pr *des.Proc) {
			pr.Sleep(p.InitTime)
			if p.Pipelined {
				perMapper := perReducer / int64(p.NumMappers)
				rem := perReducer - perMapper*int64(p.NumMappers)
				for m := 0; m < p.NumMappers; m++ {
					des.WaitAll(pr, mapperDone[m])
					chunk := perMapper
					if m == 0 {
						chunk += rem
					}
					node.Compute(pr, chunk, p.ReduceCPUBytesPerSec)
				}
			} else {
				des.WaitAll(pr, mapperDone...)
				// Reverse realignment + merge + user reduce.
				node.Compute(pr, perReducer, p.ReduceCPUBytesPerSec)
			}
			node.WriteStream(pr, perReducer)
		})
	}

	eng.Run()
	report.JobTime = eng.Now()
	report.MapEnd = mapEnd
	report.BytesShuffle = shuffleTotal
	return report
}
