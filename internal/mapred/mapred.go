// Package mapred is a MapReduce framework over MPI-D, mirroring the
// simulation system of the paper's §IV.A (Figure 4): rank 0 acts as the
// master (the jobtracker analogue), other ranks are mapper and reducer
// workers. Mappers scan input records, call the user map function, and emit
// through MPI_D_Send; MPI-D buffers, combines, partitions, realigns and
// ships the pairs; reducers drain MPI_D_Recv and call the user reduce
// function. Applications never touch communication, exactly as the paper
// prescribes: "our MPI-D interfaces can be also adopted inner the map and
// reduce runners, and we can keep them transparently for the developers."
package mapred

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"unsafe"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/obs"
)

// Emit is the output collector handed to map and reduce functions. On every
// engine it copies key and value before it returns, so the caller may reuse
// both buffers at once: one of each can serve a whole task. A mapper's
// emissions enter the shuffle; a reducer's are what Result holds. The one
// exception is MPI-D's pass-through pair: a reduce call's own key emitted
// with the next of its own values, slice for slice, stays where the shuffle
// delivered it, and no one reuses those bytes (PartBuilder).
type Emit func(key, value []byte) error

// Mapper transforms one input record into zero or more key-value pairs.
type Mapper interface {
	Map(key, value []byte, emit Emit) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(key, value []byte, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(key, value []byte, emit Emit) error { return f(key, value, emit) }

// Reducer folds a key's value list into zero or more output pairs. Reduce
// must not write into its key or values: they alias the received runs, which
// the output may keep (Emit), and, when the reducer serves as MPI-D's
// combiner, the send buffer (core.CombineFunc).
type Reducer interface {
	Reduce(key []byte, values [][]byte, emit Emit) error
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key []byte, values [][]byte, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values [][]byte, emit Emit) error {
	return f(key, values, emit)
}

// CombinerFromReducer derives an MPI-D combiner from a reducer, the common
// Hadoop idiom the paper notes ("the combine function ... is always
// assigned as the reduce function"). The reducer must emit values under the
// same key for this to be sound; an emission under any other key would be
// silently re-filed under the input key and corrupt the shuffle, so the
// combiner checks every emitted key and declines (core.CombineFunc) when
// one differs or the reducer fails.
func CombinerFromReducer(r Reducer) core.CombineFunc {
	return func(key []byte, values [][]byte) [][]byte {
		var out [][]byte
		mismatch := false
		err := r.Reduce(key, values, func(k, v []byte) error {
			if !bytes.Equal(k, key) {
				mismatch = true
			}
			out = append(out, append([]byte(nil), v...))
			return nil
		})
		if err != nil || mismatch {
			// A combiner has no error channel (it runs inside Send), and a
			// reducer emitting under a different key cannot be re-filed
			// under this one; decline rather than corrupt data.
			return values
		}
		return out
	}
}

// Job describes a MapReduce job.
type Job struct {
	// Name labels the job in errors.
	Name string
	// Mapper and Reducer are required.
	Mapper  Mapper
	Reducer Reducer
	// Combiner optionally pre-reduces map output locally. Use
	// CombinerFromReducer for the common case.
	Combiner core.CombineFunc
	// Partitioner overrides MPI-D's hash-mod default.
	Partitioner core.PartitionFunc
	// NumReducers is the reducer count (default 1).
	NumReducers int
	// SpillThreshold and SortValues pass through to core.Config.
	SpillThreshold int
	SortValues     bool
	// Pool is read by nothing: each MPI-D rank owns its spill buffers.
	//
	// Deprecated: ignored; ROADMAP 4(k) deletes it with the benchmark's
	// assignment.
	Pool *bufpool.Pool
	// MaxTaskAttempts is how many times a failing map task is retried
	// before the job fails (mapred.map.max.attempts; Hadoop defaults to
	// 4). Values < 2 disable retries. With retries enabled, a task's
	// emissions are buffered and committed only when the attempt
	// succeeds, as Hadoop commits map output at task end — a failed
	// attempt leaves no trace in the shuffle.
	MaxTaskAttempts int
}

// Split is one input slice processed by a single map task, the analogue of
// an HDFS block handed to a mapper. Records returns the key-value records
// of the split; for text inputs use LineSplit.
type Split interface {
	// ID identifies the split for scheduling.
	ID() int
	// Records iterates the split's records in order.
	Records(yield func(key, value []byte) error) error
}

// Result is the collected output of a job.
type Result struct {
	// ByReducer holds each reducer's emissions in reduce order (keys
	// arrive lexicographically sorted within a reducer).
	ByReducer [][]kv.Pair
	// MapCounters aggregates the MPI-D counters over all mappers.
	MapCounters core.Counters
	// MapTasks is the number of splits processed.
	MapTasks int
	// FailedAttempts counts map attempts that errored and were retried.
	FailedAttempts int
	// MaxTaskExecutions is the highest number of times any single task was
	// launched: 1 in a fault-free run, > 1 when tasks were re-executed
	// after failures or tracker loss. (Populated by the hadoop engine.)
	MaxTaskExecutions int
}

// Pairs returns all output pairs merged and canonically sorted, the
// equivalent of concatenating the part-r-* files and sorting. The order is
// total — (key, value), with equal pairs kept in reducer order by a stable
// sort — so two results holding the same multiset of pairs render the same
// sequence even when duplicate keys land on different reducers. (A key-only
// unstable sort here made every duplicate-key workload's canonical output
// flip nondeterministically between runs.)
func (r *Result) Pairs() []kv.Pair {
	n := 0
	for _, pairs := range r.ByReducer {
		n += len(pairs)
	}
	all := make([]kv.Pair, 0, n)
	for _, pairs := range r.ByReducer {
		all = append(all, pairs...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if c := kv.Compare(all[i].Key, all[j].Key); c != 0 {
			return c < 0
		}
		return kv.Compare(all[i].Value, all[j].Value) < 0
	})
	return all
}

// Tags for framework traffic (distinct from core's DataTag/DoneTag).
const (
	tagSched      = 101 // mapper -> master: scheduling events (typed payload)
	tagTaskAssign = 102 // master -> mapper: split id, or -1 for done
	tagCounters   = 104 // mapper -> master: serialized counters
)

// Scheduling event types carried on tagSched.
const (
	schedRequest = 0 // give me work
	schedDone    = 1 // split N succeeded
	schedFailed  = 2 // split N's attempt errored
)

// Run executes the job on an in-process MPI world with 1 master rank,
// nMappers mapper ranks and job.NumReducers reducer ranks, scheduling
// splits dynamically, and returns the collected output.
func Run(job Job, splits []Split, nMappers int) (*Result, error) {
	return RunContext(context.Background(), job, splits, Exec{Mappers: nMappers})
}

// RunOnWorld is Run over a caller-chosen transport: newWorld receives the
// rank count the job needs (1 master + NumReducers + nMappers) and returns
// the world to execute on. The world is closed when the job finishes. The
// transport equivalence suite uses this to run the identical job over the
// chan, ring and TCP transports and compare outputs byte for byte.
func RunOnWorld(job Job, splits []Split, nMappers int, newWorld func(n int) (*mpi.World, error)) (*Result, error) {
	return RunContext(context.Background(), job, splits, Exec{Mappers: nMappers, NewWorld: newWorld})
}

// Exec says where an MPI-D job runs and what observes it.
type Exec struct {
	// Mappers is the mapper rank count (required, > 0).
	Mappers int
	// NewWorld builds the job's world, as RunOnWorld describes; nil means
	// an in-process world.
	NewWorld func(n int) (*mpi.World, error)
	// Telemetry passes through to every rank's core.Config. Optional.
	obs.Telemetry
}

// RunContext is the job runner Run and RunOnWorld wrap. Once ctx is done
// the world is aborted with the context's error: ranks blocked in a receive
// or a send unblock on every transport, mappers take no further split and
// reducers no further key, and the error returned satisfies errors.Is(err,
// context.Canceled) or errors.Is(err, context.DeadlineExceeded). A record
// already inside the user's Map or Reduce runs to its end first — there is
// no per-record check. A context that can never be done
// (context.Background) costs nothing: no callback is registered.
func RunContext(ctx context.Context, job Job, splits []Split, x Exec) (*Result, error) {
	nMappers := x.Mappers
	if job.Mapper == nil || job.Reducer == nil {
		return nil, errors.New("mapred: job needs Mapper and Reducer")
	}
	if nMappers <= 0 {
		return nil, fmt.Errorf("mapred: need at least one mapper, got %d", nMappers)
	}
	if job.NumReducers <= 0 {
		job.NumReducers = 1
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapred: job %q: %w", job.Name, err)
	}

	nRanks := 1 + job.NumReducers + nMappers
	reducers := make([]int, job.NumReducers)
	for i := range reducers {
		reducers[i] = 1 + i // ranks 1..NumReducers
	}
	senders := make([]int, nMappers)
	for i := range senders {
		senders[i] = 1 + job.NumReducers + i
	}

	result := &Result{ByReducer: make([][]kv.Pair, job.NumReducers), MapTasks: len(splits)}

	newWorld := x.NewWorld
	if newWorld == nil {
		newWorld = func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil }
	}
	w, err := newWorld(nRanks)
	if err != nil {
		return nil, fmt.Errorf("mapred: job %q: world: %w", job.Name, err)
	}
	defer w.Close()
	if w.Size() != nRanks {
		return nil, fmt.Errorf("mapred: job %q: world has %d ranks, job needs %d", job.Name, w.Size(), nRanks)
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { w.Abort(ctx.Err()) })
		defer stop()
	}
	err = mpi.RunOn(w, func(c *mpi.Comm) error {
		cfg := core.Config{
			Comm:           c,
			Reducers:       reducers,
			Senders:        senders,
			Combiner:       job.Combiner,
			Partitioner:    job.Partitioner,
			SpillThreshold: job.SpillThreshold,
			SortValues:     job.SortValues,
			Telemetry:      x.Telemetry,
		}
		d, err := core.Init(cfg)
		if err != nil {
			return err
		}
		switch {
		case c.Rank() == 0:
			return runMaster(c, d, result, job, splits, nMappers)
		case d.IsReducer():
			return runReducer(ctx, d, job, &result.ByReducer[c.Rank()-1])
		default:
			return runMapper(ctx, c, d, job, splits)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("mapred: job %q: %w", job.Name, err)
	}
	return result, nil
}

// runMaster schedules splits to mappers on demand — re-queueing failed
// attempts up to the job's retry budget — and sums the mappers' counters. No
// output passes through it: each reducer files its own partition.
func runMaster(c *mpi.Comm, d *core.D, result *Result, job Job, splits []Split, nMappers int) error {
	maxAttempts := job.MaxTaskAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	pending := make([]int, len(splits))
	for i := range pending {
		pending[i] = i
	}
	attempts := make(map[int]int)
	var waiters []int // mapper ranks parked until work appears or the job drains
	outstanding := 0  // splits assigned but not yet reported done/failed
	released := 0     // mappers told to shut down

	assign := func(rank, split int) error {
		return c.Send(rank, tagTaskAssign, kv.AppendVLong(nil, int64(split)))
	}
	release := func(rank int) error {
		released++
		return c.Send(rank, tagTaskAssign, kv.AppendVLong(nil, -1))
	}
	// dispatch gives rank work if any is pending, parks it if work may yet
	// reappear (failures), and releases it when the job has drained.
	dispatch := func(rank int) error {
		if len(pending) > 0 {
			split := pending[0]
			pending = pending[1:]
			outstanding++
			return assign(rank, split)
		}
		if outstanding > 0 {
			waiters = append(waiters, rank)
			return nil
		}
		return release(rank)
	}
	// drainWaiters re-evaluates parked mappers after state changes.
	drainWaiters := func() error {
		for len(waiters) > 0 {
			if len(pending) == 0 && outstanding > 0 {
				return nil // still parked
			}
			rank := waiters[0]
			waiters = waiters[1:]
			if err := dispatch(rank); err != nil {
				return err
			}
		}
		return nil
	}

	for released < nMappers {
		data, st, err := c.Recv(mpi.AnySource, tagSched)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return errors.New("mapred: empty scheduling event")
		}
		switch data[0] {
		case schedRequest:
			if err := dispatch(st.Source); err != nil {
				return err
			}
		case schedDone:
			outstanding--
			if err := drainWaiters(); err != nil {
				return err
			}
		case schedFailed:
			split64, _, err := kv.ReadVLong(data[1:])
			if err != nil {
				return fmt.Errorf("mapred: corrupt failure event: %w", err)
			}
			split := int(split64)
			attempts[split]++
			result.FailedAttempts++
			if attempts[split] >= maxAttempts {
				return fmt.Errorf("mapred: map task %d failed %d time(s), budget %d exhausted",
					split, attempts[split], maxAttempts)
			}
			outstanding--
			pending = append(pending, split)
			if err := drainWaiters(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("mapred: unknown scheduling event %d", data[0])
		}
	}
	for i := 0; i < nMappers; i++ {
		data, _, err := c.Recv(mpi.AnySource, tagCounters)
		if err != nil {
			return err
		}
		cs, err := decodeCounters(data)
		if err != nil {
			return err
		}
		addCounters(&result.MapCounters, cs)
	}
	return d.Finalize()
}

// runMapper pulls splits until the master says done, mapping each record.
// With retries enabled, an attempt's output is buffered and committed only
// on success; a failed attempt is reported to the master for re-queueing.
func runMapper(ctx context.Context, c *mpi.Comm, d *core.D, job Job, splits []Split) error {
	retries := job.MaxTaskAttempts > 1
	for {
		// A canceled job takes no further split, even one the master could
		// still hand out before the abort reaches this rank's world.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.Send(0, tagSched, []byte{schedRequest}); err != nil {
			return err
		}
		data, _, err := c.Recv(0, tagTaskAssign)
		if err != nil {
			return err
		}
		idx, _, err := kv.ReadVLong(data)
		if err != nil {
			return err
		}
		if idx < 0 {
			break
		}

		var taskErr error
		if retries {
			// Buffered commit: nothing reaches the shuffle unless the
			// whole attempt succeeds.
			var buffered []kv.Pair
			emit := func(key, value []byte) error {
				buffered = append(buffered, kv.Pair{Key: key, Value: value}.Clone())
				return nil
			}
			taskErr = splits[idx].Records(func(k, v []byte) error {
				return job.Mapper.Map(k, v, emit)
			})
			if taskErr == nil {
				for _, p := range buffered {
					if err := d.SendPair(p); err != nil {
						return err
					}
				}
			}
		} else {
			emit := Emit(d.Send)
			taskErr = splits[idx].Records(func(k, v []byte) error {
				return job.Mapper.Map(k, v, emit)
			})
		}

		if taskErr != nil {
			if !retries {
				return fmt.Errorf("map task %d: %w", idx, taskErr)
			}
			event := append([]byte{schedFailed}, kv.AppendVLong(nil, idx)...)
			if err := c.Send(0, tagSched, event); err != nil {
				return err
			}
			continue
		}
		event := append([]byte{schedDone}, kv.AppendVLong(nil, idx)...)
		if err := c.Send(0, tagSched, event); err != nil {
			return err
		}
	}
	if err := d.Finalize(); err != nil {
		return err
	}
	return c.Send(0, tagCounters, encodeCounters(d.Counters()))
}

// runReducer drains MPI-D, reduces each group and files the output in *part,
// this rank's own slot of Result.ByReducer: a partition is built once, where
// it is reduced, and crosses no transport. mpi.RunOn's join orders the write
// before RunContext returns, and a failed job returns no Result, so a partial
// partition is never visible. Once every run is in, nothing here touches the
// world, so the loop asks the context itself.
func runReducer(ctx context.Context, d *core.D, job Job, part *[]kv.Pair) error {
	// Every run is in before Recv delivers a key: the count is final by the
	// first emit.
	out := NewPartBuilder(func() int { return int(d.Counters().BytesReceived) })
	emit := Emit(out.Emit)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		key, values, err := d.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		out.Group(key, values, d.ReceivedCap())
		if err := job.Reducer.Reduce(key, values, emit); err != nil {
			return fmt.Errorf("reduce key %q: %w", key, err)
		}
	}
	*part = out.Pairs()
	return d.Finalize()
}

// PartBuilder builds one reducer's output partition where it is reduced, on
// either engine. Emit copies key and value back to back into a block and
// appends a header aliasing the copy, cap-limited so an append by the
// Result's holder cannot reach the next pair. A block is sized from the bytes
// the shuffle delivered to the reducer, so an output no larger than its input
// takes one; a block of constant size taxes every small job (EXPERIMENTS.md).
// Blocks are plain allocations, never from a pool — a Result outlives its
// job — and a full one is never regrown: pairs alias it.
//
// A reducer that declares each reduce call with Group, as MPI-D's does, keeps
// a pass-through pair where the shuffle delivered it: a header, cap-limited
// the same way, files the call's own key and the next of its own values, and
// nothing is copied. A partition is in place or copied as a whole: at the
// first pair that is not a pass-through, the pairs kept so far move into a
// block and Emit copies from then on. The hadoop engine declares no group and
// copies, as Hadoop 0.20 wrote reduce output to HDFS.
type PartBuilder struct {
	received func() int // bytes the shuffle delivered; read when a block fills or before the first pair
	pairs    []kv.Pair
	block    []byte
	size     int

	inPlace bool     // every pair so far is a pass-through, filed where it lies
	key     []byte   // the declared call's key
	values  [][]byte // its values not yet passed through, in order
}

// NewPartBuilder returns a builder whose blocks are sized by received.
func NewPartBuilder(received func() int) *PartBuilder {
	return &PartBuilder{received: received}
}

// Group declares the reduce call about to run: its key and values as the
// shuffle delivered them, in buffers whose capacity totals held bytes, which
// no one writes to again. The partition starts in place only before its first
// pair and only when held is at most 9/8 of the bytes received, so it never
// pins much more than a copy would allocate.
func (b *PartBuilder) Group(key []byte, values [][]byte, held int) {
	if b.pairs == nil {
		received := b.received()
		b.inPlace = held <= received+received/8
	}
	b.key, b.values = key, values
}

// Emit is the reducer's output collector.
func (b *PartBuilder) Emit(key, value []byte) error {
	need := len(key) + len(value)
	if b.inPlace && b.keep(key, value) {
		b.size += need
		return nil
	}
	if need > cap(b.block)-len(b.block) {
		received := b.received()
		if b.pairs == nil {
			b.headers(received, need)
		}
		b.block = make([]byte, 0, max(received, need))
	}
	b.pairs = append(b.pairs, b.copy(key, value))
	b.size += need
	return nil
}

// keep files a pass-through pair where it lies and reports true. Given any
// other pair it ends the partition's time in place: the pairs kept so far
// move into a block with room for this one too, and it reports false.
func (b *PartBuilder) keep(key, value []byte) bool {
	if len(b.values) > 0 && same(key, b.key) && same(value, b.values[0]) {
		b.values = b.values[1:]
		if b.pairs == nil {
			b.headers(b.received(), len(key)+len(value))
		}
		b.pairs = append(b.pairs, kv.Pair{Key: key[:len(key):len(key)], Value: value[:len(value):len(value)]})
		return true
	}
	b.inPlace = false
	if len(b.pairs) > 0 {
		b.block = make([]byte, 0, max(b.received(), b.size+len(key)+len(value)))
		for i, p := range b.pairs {
			b.pairs[i] = b.copy(p.Key, p.Value)
		}
	}
	return false
}

// same reports whether x and y are one slice: the same bytes, not equal ones.
func same(x, y []byte) bool {
	return len(x) == len(y) && unsafe.SliceData(x) == unsafe.SliceData(y)
}

// headers makes the header slice for pairs need bytes long, but no more bytes
// of header (48 each) than of data: the first key is often the shortest.
// serve retains results, so a high guess is clipped in Pairs.
func (b *PartBuilder) headers(received, need int) {
	b.pairs = make([]kv.Pair, 0, received/max(need, 48)+1)
}

// copy appends key and value to the block, which has room for both, and
// returns a header aliasing the copy.
func (b *PartBuilder) copy(key, value []byte) kv.Pair {
	k, v := len(b.block), len(b.block)+len(key)
	b.block = append(append(b.block, key...), value...)
	return kv.Pair{Key: b.block[k:v:v], Value: b.block[v:len(b.block):len(b.block)]}
}

// Pairs returns the partition, its header slice trimmed when more than an
// eighth of it is unused.
func (b *PartBuilder) Pairs() []kv.Pair {
	if cap(b.pairs)-len(b.pairs) > len(b.pairs)/8 {
		b.pairs = append(make([]kv.Pair, 0, len(b.pairs)), b.pairs...)
	}
	return b.pairs
}

// Size returns the key and value bytes emitted so far.
func (b *PartBuilder) Size() int { return b.size }

// --------------------------------------------------------------------------
// Counter serialization for master collection.

func encodeCounters(cs core.Counters) []byte {
	b := kv.AppendVLong(nil, cs.PairsSent)
	b = kv.AppendVLong(b, cs.PairsCombined)
	b = kv.AppendVLong(b, cs.Spills)
	b = kv.AppendVLong(b, cs.MessagesSent)
	b = kv.AppendVLong(b, cs.BytesSent)
	b = kv.AppendVLong(b, cs.PairsReceived)
	return b
}

func decodeCounters(b []byte) (core.Counters, error) {
	var cs core.Counters
	fields := []*int64{
		&cs.PairsSent, &cs.PairsCombined, &cs.Spills,
		&cs.MessagesSent, &cs.BytesSent, &cs.PairsReceived,
	}
	for _, f := range fields {
		v, n, err := kv.ReadVLong(b)
		if err != nil {
			return cs, fmt.Errorf("mapred: corrupt counters: %w", err)
		}
		*f = v
		b = b[n:]
	}
	return cs, nil
}

func addCounters(dst *core.Counters, src core.Counters) {
	dst.PairsSent += src.PairsSent
	dst.PairsCombined += src.PairsCombined
	dst.Spills += src.Spills
	dst.MessagesSent += src.MessagesSent
	dst.BytesSent += src.BytesSent
	dst.PairsReceived += src.PairsReceived
}
