package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/trace"
)

// A traced job is observed only at the boundaries the public API shows:
// Split.Records, Mapper.Map, the Emit handed to the mapper (core.D.Send on
// the MPI-D engine), the Combiner and Reducer.Reduce. probe wraps those five
// and accumulates busy time and counts; spans inside the engines are a later
// change.

// timedPerJob bounds how many Map calls, how many records' emits and how
// many Reduce calls of one job are timed. A clock read costs 35-60 ns here and
// WordCount maps 100000 lines into a million emits per job: timing every call
// cost 25-40 % of the job. So of every stride records one has its Map call
// timed and the next has each of its emits timed (never both: the clock reads
// around the emits would count as map time), every stride-th Reduce call is
// timed, the rest run unwrapped, and the sums are scaled up. Means are
// unbiased; core.emit_max_ms is the largest emit among the sampled ones, a
// witness of spill stalls rather than a bound on them.
const timedPerJob = 8 << 10

// clockNs is what an empty timed window reads on this machine; it is taken
// off every timed emit, which is itself only two or three times as long.
var clockNs = sync.OnceValue(func() int64 {
	windows := make([]float64, 1001)
	for i := range windows {
		t0 := time.Now()
		windows[i] = float64(time.Since(t0))
	}
	return int64(median(windows))
})

type splitSpan struct {
	id         int
	start, end time.Time
}

// probe accumulates one job's layer-boundary observations. The job's tasks
// run on several goroutines, so every field is atomic or behind mu.
type probe struct {
	recordStride int64
	reduceStride int64

	records       atomic.Int64
	timedMaps     atomic.Int64 // records whose Map call was timed
	timedMapNs    atomic.Int64
	timedEmitRecs atomic.Int64 // records whose emits were timed
	timedEmits    atomic.Int64
	timedEmitNs   atomic.Int64
	emitMaxNs     atomic.Int64
	combineNs     atomic.Int64
	reduces       atomic.Int64
	timedReduces  atomic.Int64
	timedReduceNs atomic.Int64
	timedValues   atomic.Int64 // values handed to the timed Reduce calls

	mu     sync.Mutex
	splits []splitSpan
}

func newProbe(o oracle) *probe {
	return &probe{
		recordStride: int64(o.records/timedPerJob) + 2, // two kinds of timed record per stride
		reduceStride: int64(o.groups/timedPerJob) + 1,
	}
}

// wrap returns copies of the job and its splits with every boundary timed.
func (pr *probe) wrap(job mapred.Job, splits []mapred.Split) (mapred.Job, []mapred.Split) {
	job.Mapper = tracedMapper{inner: job.Mapper, pr: pr}
	job.Reducer = tracedReducer{inner: job.Reducer, pr: pr}
	if inner := job.Combiner; inner != nil {
		job.Combiner = func(key []byte, values [][]byte) [][]byte {
			t0 := time.Now()
			out := inner(key, values)
			pr.combineNs.Add(int64(time.Since(t0)))
			return out
		}
	}
	wrapped := make([]mapred.Split, len(splits))
	for i, s := range splits {
		wrapped[i] = tracedSplit{Split: s, pr: pr}
	}
	return job, wrapped
}

type tracedSplit struct {
	mapred.Split
	pr *probe
}

func (s tracedSplit) Records(yield func(key, value []byte) error) error {
	start := time.Now()
	err := s.Split.Records(yield)
	end := time.Now()
	s.pr.mu.Lock()
	s.pr.splits = append(s.pr.splits, splitSpan{id: s.ID(), start: start, end: end})
	s.pr.mu.Unlock()
	return err
}

// pick spreads call ordinals over [0, stride) pseudo-randomly. A plain
// n % stride aliased: TeraSort spills every 10486 records, a multiple of the
// stride of 14, so every spill landed in a Map-timed record and none in an
// emit-timed one.
func pick(n, stride int64) int64 {
	return int64(uint64(n) * 0x9E3779B97F4A7C15 >> 33 % uint64(stride))
}

type tracedMapper struct {
	inner mapred.Mapper
	pr    *probe
}

func (m tracedMapper) Map(key, value []byte, emit mapred.Emit) error {
	pr := m.pr
	switch pick(pr.records.Add(1), pr.recordStride) {
	case 0:
		t0 := time.Now()
		err := m.inner.Map(key, value, emit)
		pr.timedMapNs.Add(int64(time.Since(t0)))
		pr.timedMaps.Add(1)
		return err
	case 1:
		var n, emitNs, maxNs int64
		err := m.inner.Map(key, value, func(k, v []byte) error {
			t0 := time.Now()
			err := emit(k, v)
			d := int64(time.Since(t0)) - clockNs()
			n++
			emitNs += d
			maxNs = max(maxNs, d)
			return err
		})
		pr.timedEmitRecs.Add(1)
		pr.timedEmits.Add(n)
		pr.timedEmitNs.Add(emitNs)
		for {
			old := pr.emitMaxNs.Load()
			if maxNs <= old || pr.emitMaxNs.CompareAndSwap(old, maxNs) {
				return err
			}
		}
	}
	return m.inner.Map(key, value, emit)
}

type tracedReducer struct {
	inner mapred.Reducer
	pr    *probe
}

func (r tracedReducer) Reduce(key []byte, values [][]byte, emit mapred.Emit) error {
	pr := r.pr
	if pick(pr.reduces.Add(1), pr.reduceStride) != 0 {
		return r.inner.Reduce(key, values, emit)
	}
	t0 := time.Now()
	err := r.inner.Reduce(key, values, emit)
	pr.timedReduceNs.Add(int64(time.Since(t0)))
	pr.timedReduces.Add(1)
	pr.timedValues.Add(int64(len(values)))
	return err
}

// phases splits a job's wall interval [start, end] at the first split read
// and the last split read: startup, map phase, reduce tail. The three are
// contiguous, so they sum to the job's wall time exactly.
func (pr *probe) phases(start, end time.Time) (firstRead, lastRead time.Time) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	firstRead, lastRead = end, start
	for _, s := range pr.splits {
		if s.start.Before(firstRead) {
			firstRead = s.start
		}
		if s.end.After(lastRead) {
			lastRead = s.end
		}
	}
	if lastRead.Before(firstRead) { // no split was read
		firstRead, lastRead = end, end
	}
	return firstRead, lastRead
}

// times returns the job's busy sums in raw milliseconds, keyed by the
// per-layer metric they feed.
func (pr *probe) times(start, end time.Time) map[string]float64 {
	firstRead, lastRead := pr.phases(start, end)
	var readNs int64
	pr.mu.Lock()
	for _, s := range pr.splits {
		readNs += int64(s.end.Sub(s.start))
	}
	pr.mu.Unlock()
	// Scale the sampled sums up to every record and every Reduce call.
	records := pr.records.Load()
	mapNs := float64(pr.timedMapNs.Load()) * scale(records, pr.timedMaps.Load())
	emitNs := float64(pr.timedEmitNs.Load()) * scale(records, pr.timedEmitRecs.Load())
	reduceNs := float64(pr.timedReduceNs.Load()) * scale(pr.reduces.Load(), pr.timedReduces.Load())
	return map[string]float64{
		"mapred.startup_ms":      ms(firstRead.Sub(start)),
		"mapred.map_phase_ms":    ms(lastRead.Sub(firstRead)),
		"mapred.reduce_tail_ms":  ms(end.Sub(lastRead)),
		"mapred.split_read_ms":   (float64(readNs) - mapNs) / 1e6,
		"mapred.map_user_ms":     (mapNs - emitNs) / 1e6,
		"mapred.combine_user_ms": float64(pr.combineNs.Load()) / 1e6,
		"mapred.reduce_user_ms":  reduceNs / 1e6,
		"core.emit_max_ms":       float64(pr.emitMaxNs.Load()) / 1e6,
	}
}

func scale(all, timed int64) float64 {
	if timed == 0 {
		return 0
	}
	return float64(all) / float64(timed)
}

// reduceValues estimates how many values the reducers were handed.
func (pr *probe) reduceValues() float64 {
	return float64(pr.timedValues.Load()) * scale(pr.reduces.Load(), pr.timedReduces.Load())
}

func (pr *probe) emitNsPerPair() float64 {
	if n := pr.timedEmits.Load(); n > 0 {
		return float64(pr.timedEmitNs.Load()) / float64(n)
	}
	return 0
}

// spanIDs hands out ids for the benchmark's own spans, far above the
// process-wide counter internal/trace draws from.
var spanIDs atomic.Uint64

func nextSpanID() uint64 { return 1<<62 + spanIDs.Add(1) }

// spans renders the job as a span tree: the job, its three contiguous phases
// and one span per split read under the map phase.
func (pr *probe) spans(name, proc string, start, end time.Time) []trace.Span {
	firstRead, lastRead := pr.phases(start, end)
	traceID := nextSpanID()
	mk := func(parent uint64, name, kind string, s, e time.Time) trace.Span {
		return trace.Span{Trace: traceID, ID: nextSpanID(), Parent: parent, Name: name, Kind: kind, Proc: proc, Start: s, Finish: e}
	}
	root := mk(0, name, trace.KindJob, start, end)
	mapPhase := mk(root.ID, "map_phase", trace.KindPhase, firstRead, lastRead)
	out := []trace.Span{
		root,
		mk(root.ID, "startup", trace.KindPhase, start, firstRead),
		mapPhase,
		mk(root.ID, "reduce_tail", trace.KindPhase, lastRead, end),
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, s := range pr.splits {
		out = append(out, mk(mapPhase.ID, "split "+strconv.Itoa(s.id), trace.KindTask, s.start, s.end))
	}
	return out
}
