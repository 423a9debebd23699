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
//     realigned contiguous partitions and ships them with plain blocking
//     MPI sends, as the paper's prototype does;
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
			remaining := myShare
			for remaining > 0 {
				chunk := p.SpillBuffer
				if chunk > remaining {
					chunk = remaining
				}
				remaining -= chunk
				node.ReadStream(pr, chunk)
				node.Compute(pr, chunk, p.MapCPUBytesPerSec)
				out := int64(float64(chunk) * p.CombinedSelectivity)
				stat.BytesRead += chunk
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
					cl.Transfer(pr, node, dst, per)
				}
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

	// Reducer processes: wait for every mapper, then merge + reduce their
	// share of the intermediate data.
	totalIntermediate := int64(float64(p.InputBytes) * p.CombinedSelectivity)
	perReducer := totalIntermediate / int64(p.NumReducers)
	for r := 0; r < p.NumReducers; r++ {
		r := r
		node := reducerNode(r)
		eng.Go(fmt.Sprintf("reducer-%d", r), func(pr *des.Proc) {
			pr.Sleep(p.InitTime)
			des.WaitAll(pr, mapperDone...)
			// Reverse realignment + merge + user reduce.
			node.Compute(pr, perReducer, p.ReduceCPUBytesPerSec)
			node.WriteStream(pr, perReducer)
		})
	}

	eng.Run()
	report.JobTime = eng.Now()
	report.MapEnd = mapEnd
	report.BytesShuffle = shuffleTotal
	return report
}
