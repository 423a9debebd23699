package sim

import (
	"fmt"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
)

// The MPI-D WordCount as §IV.C runs it.
const (
	// numMappers and numReducers are the paper's process counts: 49
	// mappers over 7 worker nodes against a single reducer.
	numMappers  = 49
	numReducers = 1
	// spillBuffer is the input a mapper consumes per spill round: the
	// hash table threshold in input terms.
	spillBuffer = 100 * netmodel.MB
	// initTime is the one-time mpiexec launch plus MPI_D_Init.
	initTime = 400 * des.Time(1e6)
)

// MPIDWordCount returns the §IV.C WordCount on MPI-D. Its map runs faster
// than Hadoop's: no per-record Writable churn and no spill-sort machinery,
// though it still pays the library's hash, combine and realign work. Its
// reducer writes the whole merged input; at 5 % map selectivity that write
// is a small share of the job.
func MPIDWordCount(inputBytes int64) Job {
	return Job{
		InputBytes:           inputBytes,
		MapCPUBytesPerSec:    3.5e6,
		ReduceCPUBytesPerSec: 20e6,
		MapSelectivity:       0.05,
		ReduceSelectivity:    1,
	}
}

// ProcStat records one mapper process's activity.
type ProcStat struct {
	Rank       int
	Node       int
	Start, End des.Time
	BytesRead  int64
	BytesSent  int64
}

// MPIDReport is the outcome of one simulated MPI-D job.
type MPIDReport struct {
	JobTime      des.Time
	MapEnd       des.Time
	Mappers      []ProcStat
	BytesShuffle int64
}

// RunMPID simulates the job on the §IV MPI-D prototype, the simulation
// counterpart of internal/core, with fabric on every NIC
// (netmodel.MPI() is the paper's GigE). Where it differs from RunHadoop
// is the paper's design:
//
//   - mpiexec pre-spawns every rank once (one init cost): no per-task JVM,
//     no heartbeat wait, no waves — "the mapper processes will scan input
//     data records continuously";
//   - input is spread over the workers and read locally, as the paper
//     arranges;
//   - a mapper buffers and combines pairs, spills realigned partitions
//     every spill round and ships them with blocking MPI sends;
//   - reducers receive with a wildcard MPI_Recv, so with 49 mappers
//     against one reducer its inbound NIC is the bottleneck at scale.
func RunMPID(j Job, fabric netmodel.Model) *MPIDReport {
	j.validate("mpid")
	eng := des.New()
	tb := newTestbed(eng, fabric)
	workers := tb.workers()

	report := &MPIDReport{Mappers: make([]ProcStat, 0, numMappers)}

	// Reducers are placed round-robin from the last worker backwards so a
	// reducer shares its NIC with as few mapper hot spots as it can.
	reducerNode := func(r int) *node {
		return workers[(len(workers)-1-r%len(workers)+len(workers))%len(workers)]
	}

	share := j.InputBytes / numMappers
	extra := j.InputBytes % numMappers

	// A reducer finishes once every mapper has signalled completion; the
	// bytes have arrived by then, since transfers hold the reducer's NIC.
	mapperDone := make([]*des.Done, numMappers)
	for i := range mapperDone {
		mapperDone[i] = des.NewDone(eng)
	}

	for m := 0; m < numMappers; m++ {
		node := workers[m%len(workers)]
		myShare := share
		if int64(m) < extra {
			myShare++
		}
		eng.Go(fmt.Sprintf("mapper-%d", m), func(pr *des.Proc) {
			pr.Sleep(initTime)
			stat := ProcStat{Rank: m + 1, Node: node.id, Start: pr.Now()}
			for remaining := myShare; remaining > 0; {
				chunk := min(int64(spillBuffer), remaining)
				remaining -= chunk
				node.readStream(pr, chunk)
				node.compute(pr, chunk, j.MapCPUBytesPerSec)
				out := j.mapOutput(chunk)
				stat.BytesRead += chunk
				stat.BytesSent += out
				// Realigned partitions ship to each reducer; even split.
				per := out / numReducers
				if per < 1 && out > 0 {
					per = 1
				}
				for r := 0; r < numReducers; r++ {
					if dst := reducerNode(r); dst != node && per > 0 {
						tb.transfer(pr, node, dst, per)
					}
				}
			}
			stat.End = pr.Now()
			report.MapEnd = max(report.MapEnd, stat.End)
			report.BytesShuffle += stat.BytesSent
			report.Mappers = append(report.Mappers, stat)
			mapperDone[m].Complete()
		})
	}

	// Reducers wait for every mapper, then reverse the realignment, merge
	// and reduce their share of the intermediate data.
	perReducer := j.mapOutput(j.InputBytes) / numReducers
	for r := 0; r < numReducers; r++ {
		node := reducerNode(r)
		eng.Go(fmt.Sprintf("reducer-%d", r), func(pr *des.Proc) {
			pr.Sleep(initTime)
			des.WaitAll(pr, mapperDone...)
			node.compute(pr, perReducer, j.ReduceCPUBytesPerSec)
			node.writeStream(pr, j.reduceOutput(perReducer))
		})
	}

	eng.Run()
	report.JobTime = eng.Now()
	return report
}
