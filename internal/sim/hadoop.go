package sim

import (
	"fmt"
	"math/rand"

	"github.com/ict-repro/mpid/internal/des"
	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/stats"
)

// Hadoop 0.20 as the paper ran it (§II.A), and the costs its logs show.
const (
	// blockSize is the HDFS block, one map task each.
	blockSize = 64 * netmodel.MB
	// jobSetup is the fixed job submission and initialisation cost.
	jobSetup = 5 * des.Time(1e9)
	// taskStartup is the per-task JVM spawn.
	taskStartup = 1500 * des.Time(1e6)
	// heartbeat is the tasktracker interval; a tracker receives at most
	// one map and one reduce task per beat.
	heartbeat = 3 * des.Time(1e9)
	// slowstartFraction is mapred.reduce.slowstart.completed.maps'
	// default: the completed-maps share before reducers launch.
	slowstartFraction = 0.05
	// copierThreads is mapred.reduce.parallel.copies' default, a
	// reducer's parallel fetches.
	copierThreads = 5
	// sortFixed is the post-copy sort phase, which Figure 1 measures at
	// 0.0102 s on average (the merge already ran during copy).
	sortFixed = 10200 * des.Time(1e3)
	// inMemoryMergeLimit is the largest reduce input merged in memory;
	// a larger one is re-read from disk before the reduce phase
	// (mapred.job.shuffle.merge.percent, coarsely).
	inMemoryMergeLimit = 100 * netmodel.MB
	// pageCacheBytes is the OS page cache per node (of 16 GB) that holds
	// map outputs. While a node's outputs fit, fetches are served from
	// memory without seeks; beyond it, the uncached share pays the full
	// random read. This is Table I's jump between 27 GB (copy ~36-48 %)
	// and 81+ GB (copy ~60-83 %).
	pageCacheBytes = 8 * netmodel.GB
	// jitterFrac is the +/- spread applied to task startup and CPU
	// times, drawn from a generator seeded with jitterSeed.
	jitterFrac = 0.2
	jitterSeed = 1
)

// fetchLatency is the Jetty request overhead each map-output fetch pays.
var fetchLatency = netmodel.Jetty().Latency(0)

// HadoopJob is a Job with the Hadoop jobconf the paper varies.
type HadoopJob struct {
	Job
	// NumReduceTasks is the reduce task count; 0 means one per map task,
	// GridMix JavaSort's data-proportional setting (the paper's 150 GB run
	// shows 2345 reducers against 2400 blocks).
	NumReduceTasks int
	// MaxMapSlots and MaxReduceSlots are per-node concurrency limits, the
	// Table I configuration axis (4/2, 4/4, 8/8, 16/16).
	MaxMapSlots, MaxReduceSlots int
}

// JavaSort returns the GridMix JavaSort workload of §II.A: identity
// map/reduce over 100-byte records, selectivity 1, reduce tasks
// proportional to input, maxMap/maxReduce slots per node.
func JavaSort(inputBytes int64, maxMap, maxReduce int) HadoopJob {
	return HadoopJob{
		Job: Job{
			InputBytes: inputBytes,
			// Sorting 64 MB of 100-byte records in the 0.20 map-side
			// collect/spill path.
			MapCPUBytesPerSec:    12e6,
			ReduceCPUBytesPerSec: 15e6,
			MapSelectivity:       1.0,
			ReduceSelectivity:    1.0,
		},
		MaxMapSlots:    maxMap,
		MaxReduceSlots: maxReduce,
	}
}

// HadoopWordCount returns the §IV.C Hadoop WordCount: text tokenisation
// with a combiner, 7/7 slots and a single reduce task, as the paper
// configures it.
func HadoopWordCount(inputBytes int64) HadoopJob {
	return HadoopJob{
		Job: Job{
			InputBytes: inputBytes,
			// Java text tokenisation + per-word object churn + combiner
			// + spill sort: low per-core throughput.
			MapCPUBytesPerSec:    1.5e6,
			ReduceCPUBytesPerSec: 20e6,
			// The combiner collapses each spill to roughly the vocabulary.
			MapSelectivity:    0.05,
			ReduceSelectivity: 0.1,
		},
		NumReduceTasks: 1,
		MaxMapSlots:    7,
		MaxReduceSlots: 7,
	}
}

// MapStat records one map task.
type MapStat struct {
	Task       int
	Node       int
	Start, End des.Time
}

// Duration returns the task's wall time.
func (m MapStat) Duration() des.Time { return m.End - m.Start }

// ReduceStat records one reduce task, split into the phases Figure 1 plots.
type ReduceStat struct {
	Task       int
	Node       int
	Start, End des.Time
	// Copy is the shuffle copy stage: from task start to the last map
	// output fetched — the quantity the paper measures from Hadoop logs.
	Copy des.Time
	// Sort is the post-copy merge accounting phase.
	Sort des.Time
	// Reduce is the user reduce phase.
	Reduce des.Time
	// FirstWave marks reducers launched before the map phase ended; the
	// paper deletes these 56 stragglers from Figure 1.
	FirstWave bool
}

// Duration returns the task's wall time.
func (r ReduceStat) Duration() des.Time { return r.End - r.Start }

// HadoopReport is the outcome of one simulated Hadoop job.
type HadoopReport struct {
	Job         HadoopJob
	NumMaps     int
	NumReduces  int
	JobTime     des.Time
	MapPhaseEnd des.Time
	Maps        []MapStat
	Reduces     []ReduceStat
}

// CopyPercent returns Table I's metric: the sum of all copy-stage time
// divided by the sum of all mapper and reducer task execution time.
func (r *HadoopReport) CopyPercent() float64 {
	var copySum, total float64
	for _, m := range r.Maps {
		total += m.Duration().Seconds()
	}
	for _, rd := range r.Reduces {
		total += rd.Duration().Seconds()
		copySum += rd.Copy.Seconds()
	}
	if total == 0 {
		return 0
	}
	return 100 * copySum / total
}

// summary returns one phase's distribution over the reducers Figure 1
// plots: all but the first wave.
func (r *HadoopReport) summary(phase func(ReduceStat) des.Time) *stats.Summary {
	var s stats.Summary
	for _, rd := range r.Reduces {
		if !rd.FirstWave {
			s.AddDuration(phase(rd))
		}
	}
	return &s
}

// CopySummary returns the copy-stage distribution Figure 1 plots.
func (r *HadoopReport) CopySummary() *stats.Summary {
	return r.summary(func(rd ReduceStat) des.Time { return rd.Copy })
}

// SortSummary returns the sort-stage distribution Figure 1 plots.
func (r *HadoopReport) SortSummary() *stats.Summary {
	return r.summary(func(rd ReduceStat) des.Time { return rd.Sort })
}

// ReduceSummary returns the reduce-stage distribution Figure 1 plots.
func (r *HadoopReport) ReduceSummary() *stats.Summary {
	return r.summary(func(rd ReduceStat) des.Time { return rd.Reduce })
}

// FirstWaveCount returns the number of first-wave (straggler) reducers.
func (r *HadoopReport) FirstWaveCount() int {
	n := 0
	for _, rd := range r.Reduces {
		if rd.FirstWave {
			n++
		}
	}
	return n
}

// RunHadoop simulates the job on Hadoop 0.20 over the paper's GigE testbed:
//
//   - one data-local map task per 64 MB block;
//   - the jobtracker hands a tasktracker at most one map and one reduce
//     task per 3 s heartbeat, reducers only after slow-start;
//   - every task pays a JVM start;
//   - every reduce task fetches its partition from every map output over
//     Jetty — a small random disk read at the source unless the page
//     cache still holds it, plus an HTTP transfer — so fetch count grows
//     as maps x reduces while fetch size shrinks. That turns the shuffle
//     seek- and contention-bound at scale and drives Table I's copy share
//     from ~35-45 % at 1 GB to ~70-83 % at 150 GB;
//   - then a fixed sort and the reduce proper.
//
// The paper's 56 (= 7 nodes x 8 slots) first-wave reducers sitting near
// the whole map phase fall out of the model: they hold slots from the
// start, and their copy clock runs while map outputs do not yet exist.
func RunHadoop(j HadoopJob) *HadoopReport {
	j.validate("hadoop")
	s := newHadoop(j)
	s.run()
	return s.report
}

// hadoop is the running state of one Hadoop job simulation.
type hadoop struct {
	j       HadoopJob
	eng     *des.Engine
	tb      *testbed
	workers []*node
	rng     *rand.Rand

	numMaps    int
	numReduces int
	partBytes  int64 // per (map, reduce) partition size

	nextMap    int
	nextReduce int

	completedMaps   int
	completedByNode []int // per worker index
	mapProgress     *des.Signal
	mapPhaseEnd     des.Time
	reducesDone     int

	// seekFactor is the uncached fraction of map outputs per node: the
	// share of shuffle fetches that pay a real disk seek.
	seekFactor float64

	report *HadoopReport
}

func newHadoop(j HadoopJob) *hadoop {
	eng := des.New()
	tb := newTestbed(eng, netmodel.MPI())
	numMaps := int((j.InputBytes + blockSize - 1) / blockSize)
	numReduces := j.NumReduceTasks
	if numReduces <= 0 {
		numReduces = numMaps
	}
	part := j.mapOutput(blockSize) / int64(numReduces)
	if part < 1 {
		part = 1
	}
	s := &hadoop{
		j:               j,
		eng:             eng,
		tb:              tb,
		workers:         tb.workers(),
		rng:             rand.New(rand.NewSource(jitterSeed)),
		numMaps:         numMaps,
		numReduces:      numReduces,
		partBytes:       part,
		completedByNode: make([]int, len(tb.workers())),
		mapProgress:     des.NewSignal(eng),
	}
	outputPerNode := float64(j.InputBytes) * j.MapSelectivity / float64(len(s.workers))
	if outputPerNode > float64(pageCacheBytes) {
		s.seekFactor = 1 - float64(pageCacheBytes)/outputPerNode
	}
	s.report = &HadoopReport{
		Job:        j,
		NumMaps:    numMaps,
		NumReduces: numReduces,
		Maps:       make([]MapStat, 0, numMaps),
		Reduces:    make([]ReduceStat, 0, numReduces),
	}
	return s
}

// jitter returns a deterministic multiplicative factor in [1-J, 1+J].
func (s *hadoop) jitter() float64 {
	return 1 - jitterFrac + 2*jitterFrac*s.rng.Float64()
}

func (s *hadoop) run() {
	for wi := range s.workers {
		s.eng.GoAt(jobSetup, fmt.Sprintf("tracker-%d", wi), func(p *des.Proc) {
			s.tracker(p, wi)
		})
	}
	s.eng.Run()
	if len(s.report.Maps) != s.numMaps || s.reducesDone != s.numReduces {
		panic(fmt.Sprintf("sim: hadoop job ended with %d/%d maps, %d/%d reduces",
			len(s.report.Maps), s.numMaps, s.reducesDone, s.numReduces))
	}
	// The engine clock stops at the last completion event: job end.
	s.report.JobTime = s.eng.Now()
	s.report.MapPhaseEnd = s.mapPhaseEnd
}

// tracker is one tasktracker's heartbeat loop: at most one map and one
// reduce assignment per beat, as in Hadoop 0.20.
func (s *hadoop) tracker(p *des.Proc, wi int) {
	node := s.workers[wi]
	mapSlots := des.NewResource(s.eng, fmt.Sprintf("map-slots-%d", wi), s.j.MaxMapSlots)
	reduceSlots := des.NewResource(s.eng, fmt.Sprintf("reduce-slots-%d", wi), s.j.MaxReduceSlots)
	for s.nextMap < s.numMaps || s.nextReduce < s.numReduces {
		if s.nextMap < s.numMaps && mapSlots.InUse() < mapSlots.Capacity() {
			task := s.nextMap
			s.nextMap++
			mapSlots.Acquire(p, 1)
			s.eng.Go(fmt.Sprintf("map-%d", task), func(tp *des.Proc) {
				s.mapTask(tp, task, node, wi)
				mapSlots.Release(1)
			})
		}
		slowstartMet := float64(s.completedMaps) >= slowstartFraction*float64(s.numMaps)
		if s.nextReduce < s.numReduces && slowstartMet && reduceSlots.InUse() < reduceSlots.Capacity() {
			task := s.nextReduce
			s.nextReduce++
			reduceSlots.Acquire(p, 1)
			s.eng.Go(fmt.Sprintf("reduce-%d", task), func(tp *des.Proc) {
				s.reduceTask(tp, task, node, wi)
				reduceSlots.Release(1)
			})
		}
		p.Sleep(heartbeat)
	}
}

// mapTask simulates one map task: JVM start, block read, map+collect CPU,
// output write.
func (s *hadoop) mapTask(p *des.Proc, task int, node *node, wi int) {
	start := p.Now()
	jit := s.jitter()
	p.Sleep(des.FromSeconds(taskStartup.Seconds() * jit))

	bytes := s.blockBytes(task)
	node.readStream(p, bytes)
	node.compute(p, bytes, s.j.MapCPUBytesPerSec/jit)
	node.writeStream(p, s.j.mapOutput(bytes))

	s.completedMaps++
	s.completedByNode[wi]++
	if s.completedMaps == s.numMaps {
		s.mapPhaseEnd = p.Now()
	}
	s.mapProgress.Fire()
	s.report.Maps = append(s.report.Maps, MapStat{Task: task, Node: node.id, Start: start, End: p.Now()})
}

// blockBytes returns the size of the task's block (the last may be short).
func (s *hadoop) blockBytes(task int) int64 {
	if task == s.numMaps-1 {
		if rem := s.j.InputBytes % blockSize; rem != 0 {
			return rem
		}
	}
	return blockSize
}

// reduceTask simulates one reduce task: copy (fetch from all maps as they
// complete), sort, reduce.
func (s *hadoop) reduceTask(p *des.Proc, task int, node *node, wi int) {
	start := p.Now()
	firstWave := s.completedMaps < s.numMaps
	jit := s.jitter()
	p.Sleep(des.FromSeconds(taskStartup.Seconds() * jit))

	// Copy stage: fetch this task's partition from every map output.
	cursor := make([]int, len(s.workers))
	fetched := 0
	for fetched < s.numMaps {
		var latches []*des.Done
		for si := range s.workers {
			k := s.completedByNode[si] - cursor[si]
			if k <= 0 {
				continue
			}
			cursor[si] += k
			fetched += k
			latches = append(latches, s.fetch(si, wi, k))
		}
		if len(latches) > 0 {
			des.WaitAll(p, latches...)
		} else if fetched < s.numMaps {
			s.mapProgress.Wait(p)
		}
	}
	copyEnd := p.Now()

	p.Sleep(sortFixed)
	sortEnd := p.Now()

	// Reduce stage: run the reduce function over the merged partition
	// (re-read from disk only when it exceeded the in-memory merge
	// buffer), write the output.
	totalIn := s.partBytes * int64(s.numMaps)
	if totalIn > inMemoryMergeLimit {
		node.readStream(p, totalIn)
	}
	node.compute(p, totalIn, s.j.ReduceCPUBytesPerSec/jit)
	node.writeStream(p, s.j.reduceOutput(totalIn))
	end := p.Now()

	s.report.Reduces = append(s.report.Reduces, ReduceStat{
		Task: task, Node: node.id,
		Start: start, End: end,
		Copy:      copyEnd - start,
		Sort:      sortEnd - copyEnd,
		Reduce:    end - sortEnd,
		FirstWave: firstWave,
	})
	s.reducesDone++
}

// fetch models copying k map outputs' partitions from source worker si to
// destination worker wi: a random read at the source (k seeks), the HTTP
// transfer, the local merge write, and per-request servlet latency
// amortised over the copier threads. It returns a completion latch so
// fetches from different sources overlap, as the parallel copiers do.
func (s *hadoop) fetch(si, wi, k int) *des.Done {
	done := des.NewDone(s.eng)
	src, dst := s.workers[si], s.workers[wi]
	bytes := int64(k) * s.partBytes
	// Only the uncached fraction of fetches seeks on the source disk.
	seeks := int(float64(k) * s.seekFactor)
	s.eng.Go(fmt.Sprintf("fetch-%d->%d", si, wi), func(p *des.Proc) {
		src.readRandom(p, bytes, seeks)
		s.tb.transfer(p, src, dst, bytes)
		dst.writeStream(p, bytes)
		lat := fetchLatency.Seconds() * float64(k) / copierThreads
		p.Sleep(des.FromSeconds(lat))
		done.Complete()
	})
	return done
}
