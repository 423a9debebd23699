// Package shuffle is the pipelined shuffle/merge engine behind the live
// Hadoop path's reduce side: sorted spill runs, a concurrent k-way merger
// that folds runs together while shuffle fetches are still in flight, and
// the single-pass Iterator MPI-D's grouped receive pulls from.
//
// The paper's Figure 1 and Table I show the copy stage of shuffle
// dominating Hadoop job time; DataMPI-style systems win by overlapping
// communication with sorted-run merging and by combining early. This
// package supplies exactly that structure to the live engine:
//
//   - map tasks spill each partition as a *run* — framed kv.KeyList
//     records in nondecreasing key order, each key appearing once — instead
//     of an unsorted blob, so the reduce side can merge instead of re-sort;
//   - reducers hand fetched runs to a Merger; whenever enough runs are
//     pending and more fetches are still expected, a background *merge
//     pass* folds the smallest pending runs into one (optionally applying
//     the job's combiner, the in-node "combine early" optimization), so
//     merge CPU overlaps fetch wait — the overlap is visible in Chrome
//     traces as merge spans running inside the copy phase;
//   - when every run has arrived, Merge performs the final k-way pass over
//     the survivors with a min-heap and streams key groups in sorted
//     order, so the reduce function consumes merge order directly and the
//     old whole-key-space sort.Strings pass disappears.
//
// Value ordering: values within one source run keep their run order, and
// runs with equal keys pop in ascending run sequence; but once intermediate
// passes merge arbitrary run subsets, the cross-run value order for a key
// is unspecified — the same contract Hadoop's reduce offers. Combiners
// supplied to the Merger must therefore be associative and commutative
// (CombinerFromReducer over an order-insensitive reducer qualifies), and
// they may run zero or more times per key, exactly as in Hadoop.
package shuffle

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/kv"
)

// Combiner pre-reduces a key's value list. It matches core.CombineFunc so
// a job's combiner threads straight through. It must be associative and
// commutative, and may be applied zero or more times per key.
type Combiner func(key []byte, values [][]byte) [][]byte

// ---------------------------------------------------------------------------
// Runs

// ValidateRun scans a run and checks every frame decodes and keys are
// strictly increasing (each key appears once, sorted). It returns the
// number of keys. Reducers validate fetched segments up front so a corrupt
// fetch is reported against the serving tracker instead of surfacing
// mid-merge. It makes kv.ReadKeyList's checks without building value lists,
// so a valid run costs no allocation, as Hadoop's IFile checksum costs none.
func ValidateRun(data []byte) (keys int, err error) {
	var prev []byte
	for len(data) > 0 {
		key, n, err := kv.ReadBytes(data)
		var count int64
		var used int
		if err == nil {
			count, used, err = kv.ReadVLong(data[n:])
			n += used
		}
		// kv.ReadKeyList's bound: every value costs at least its length byte.
		if err == nil && (count < 0 || count > int64(len(data)-n)) {
			err = fmt.Errorf("value count %d in %d remaining bytes", count, len(data)-n)
		}
		for ; err == nil && count > 0; count-- {
			_, used, err = kv.ReadBytes(data[n:])
			n += used
		}
		if err != nil {
			return keys, fmt.Errorf("shuffle: corrupt run at key %d: %w", keys, err)
		}
		if keys > 0 && kv.Compare(prev, key) >= 0 {
			return keys, fmt.Errorf("shuffle: run not sorted at key %d (%q after %q)", keys, key, prev)
		}
		prev, keys, data = key, keys+1, data[n:]
	}
	return keys, nil
}

// Run is one sorted segment awaiting merging: framed kv.KeyList records in
// strictly increasing key order. Seq tie-breaks equal keys across runs
// (lower Seq's values come first).
type Run struct {
	Data []byte
	Seq  int
}

// MergeRuns k-way merges sorted runs, calling emit once per key in strictly
// increasing key order with the values of equal keys grouped (combined when
// combine is non-nil and the key drew from more than one run). Emitted
// slices alias the run buffers; the caller decides their lifetime.
func MergeRuns(rs []Run, combine Combiner, emit func(kv.KeyList) error) error {
	it, err := NewIterator(rs, combine)
	if err != nil {
		return err
	}
	for {
		kl, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		if err := emit(kl); err != nil {
			return err
		}
	}
}

// cursor walks a run's KeyList frames. prefix is the current key's
// kv.Prefix, so most comparisons between cursors are one integer compare.
type cursor struct {
	rest   []byte
	cur    kv.KeyList
	prefix uint64
	seq    int
}

// advance decodes the next frame (value list from lists); ok=false at the end.
func (c *cursor) advance(lists *kv.ListArena) (ok bool, err error) {
	if len(c.rest) == 0 {
		return false, nil
	}
	klist, n, err := lists.ReadKeyList(c.rest)
	if err != nil {
		return false, err
	}
	c.cur, c.rest, c.prefix = klist, c.rest[n:], kv.Prefix(klist.Key)
	return true, nil
}

// before orders cursors by current key, then run sequence. Unequal prefixes
// decide the keys; only a tie compares them in full.
func (c *cursor) before(o *cursor) bool {
	if c.prefix != o.prefix {
		return c.prefix < o.prefix
	}
	if cmp := bytes.Compare(c.cur.Key, o.cur.Key); cmp != 0 {
		return cmp < 0
	}
	return c.seq < o.seq
}

// Iterator is the k-way merge frontier as a pull iterator: a min-heap of run
// cursors ordered by (current key, Seq). Next yields each key once, in
// strictly increasing order, equal keys' values concatenated in ascending
// Seq. It runs on the caller's goroutine and holds only the run buffers, so
// abandoning it mid-stream leaks nothing. MPI-D's grouped receiver
// (internal/core) pulls from it; MergeRuns and Merger drive it to the end.
type Iterator struct {
	heap    []*cursor
	parts   [][][]byte // reused: the per-run value lists of a multi-run key
	combine Combiner
	lists   kv.ListArena
}

// NewIterator positions a cursor on every non-empty run. combine, when
// non-nil, is applied to keys that drew from more than one run.
func NewIterator(rs []Run, combine Combiner) (*Iterator, error) {
	it := &Iterator{heap: make([]*cursor, 0, len(rs)), combine: combine}
	cursors := make([]cursor, len(rs))
	for i, r := range rs {
		c := &cursors[i]
		c.rest, c.seq = r.Data, r.Seq
		ok, err := c.advance(&it.lists)
		if err != nil {
			return nil, err
		}
		if ok {
			it.heap = append(it.heap, c)
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.down(i)
	}
	return it, nil
}

// Next returns the smallest remaining key with its grouped values; ok=false
// after the last key. The returned slices alias the run buffers and stay
// valid as long as the caller keeps them.
func (it *Iterator) Next() (kl kv.KeyList, ok bool, err error) {
	if len(it.heap) == 0 {
		return kv.KeyList{}, false, nil
	}
	kl, prefix := it.heap[0].cur, it.heap[0].prefix
	parts, n := it.parts[:0], 0
	// Stepping a cursor past key K leaves the lowest remaining Seq holding
	// K, if any, on top: equal keys come off in ascending Seq.
	for {
		if err := it.step(); err != nil {
			return kv.KeyList{}, false, err
		}
		if len(it.heap) == 0 || it.heap[0].prefix != prefix || !bytes.Equal(it.heap[0].cur.Key, kl.Key) {
			break
		}
		if n == 0 {
			parts, n = append(parts, kl.Values), len(kl.Values)
		}
		parts, n = append(parts, it.heap[0].cur.Values), n+len(it.heap[0].cur.Values)
	}
	if n == 0 {
		return kl, true, nil // the key came from a single run
	}
	kl.Values = it.lists.Take(n)[:0]
	for _, vs := range parts {
		kl.Values = append(kl.Values, vs...)
	}
	it.parts = parts
	if it.combine != nil {
		kl.Values = it.combine(kl.Key, kl.Values)
	}
	return kl, true, nil
}

// step moves the top cursor to its next frame, or drops it at its run's end.
func (it *Iterator) step() error {
	h := it.heap
	ok, err := h[0].advance(&it.lists)
	if err != nil {
		return err
	}
	if !ok {
		last := len(h) - 1
		h[0], h[last] = h[last], nil
		it.heap = h[:last]
	}
	it.down(0)
	return nil
}

// down restores the heap property from node i towards the leaves.
func (it *Iterator) down(i int) {
	h := it.heap
	if i >= len(h) {
		return
	}
	c := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(c) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = c
}

// ---------------------------------------------------------------------------
// Merger

// PassInfo describes one completed intermediate merge pass, for metrics
// and tracing.
type PassInfo struct {
	Runs     int           // runs folded by this pass
	BytesIn  int           // framed bytes consumed
	BytesOut int           // framed bytes produced
	Keys     int           // key groups written
	Start    time.Time     // when the pass began
	Duration time.Duration // wall time of the pass
}

// MergeStats sums a Merger's work, reported by the reduce task alongside its
// phase timers; PassInfo has each intermediate pass's runs and bytes.
type MergeStats struct {
	Passes int
	Time   time.Duration // total background merge CPU time
	// FinalBytes is the framed size of the runs the final pass merges, a
	// bound on the key and value bytes Merge hands to emit; 0 until Merge has
	// taken them. Runs an intermediate pass combined count at their output.
	FinalBytes int
}

// Config shapes a Merger.
type Config struct {
	// Expected is how many segments Add will deliver in total. Merge may
	// only be called after all of them arrived.
	Expected int
	// Factor is the merge fan-in (io.sort.factor): an intermediate pass
	// starts whenever at least Factor runs are pending and more segments
	// are still expected, folding the Factor smallest pending runs into
	// one. Default 10.
	Factor int
	// Combine, when set, is applied to multi-run key groups during
	// intermediate passes (never in the final pass, so the reduce function
	// still sees a value list). Must be associative and commutative.
	Combine Combiner
	// Pool recycles intermediate pass buffers; segment buffers handed to
	// Add are recycled too once a pass consumes them. Optional.
	Pool *bufpool.Pool
	// OnPass, when set, observes every completed intermediate pass — the
	// hook the tasktracker uses to emit merge spans and metrics. Called
	// from the pass's goroutine.
	OnPass func(PassInfo)
}

// Merger is the reduce-side concurrent merge engine. Copier goroutines
// Add sorted segments as fetches complete; the merger folds pending runs
// in background passes while more fetches are in flight, and Merge
// performs the final k-way pass streaming key groups in sorted order.
type Merger struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	pending []Run
	added   int
	passes  int // in-flight background passes
	stats   MergeStats
	err     error
}

// NewMerger creates a merger expecting cfg.Expected segments.
func NewMerger(cfg Config) *Merger {
	if cfg.Factor <= 1 {
		cfg.Factor = 10
	}
	m := &Merger{cfg: cfg}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Add hands one fetched segment to the merger: framed KeyLists in strictly
// increasing key order (ValidateRun verifies). The merger takes ownership
// of data — when Config.Pool is set the buffer may be recycled after an
// intermediate pass consumes it, so callers must not retain it. seq orders
// equal-key value groups and is typically the map task id. Safe for
// concurrent use.
func (m *Merger) Add(seq int, data []byte) {
	m.mu.Lock()
	m.added++
	m.pending = append(m.pending, Run{Data: data, Seq: seq})
	m.maybeStartPassLocked()
	m.mu.Unlock()
}

// maybeStartPassLocked launches a background pass when enough runs are
// pending and more segments are still expected. The final batch is left
// for Merge so the last arrivals don't trigger a useless extra pass.
func (m *Merger) maybeStartPassLocked() {
	if m.err != nil || len(m.pending) < m.cfg.Factor || m.added >= m.cfg.Expected {
		return
	}
	// Fold the smallest pending runs: cheapest pass, and it keeps large
	// already-merged runs from being recopied over and over.
	batch := m.takeSmallestLocked(m.cfg.Factor)
	m.passes++
	go m.runPass(batch)
}

// takeSmallestLocked removes and returns the n pending runs with the
// fewest bytes.
func (m *Merger) takeSmallestLocked(n int) []Run {
	// Selection by repeated scan: n and len(pending) are both small (tens).
	batch := make([]Run, 0, n)
	for len(batch) < n {
		best := 0
		for i, r := range m.pending {
			if len(r.Data) < len(m.pending[best].Data) {
				best = i
			}
		}
		batch = append(batch, m.pending[best])
		m.pending = append(m.pending[:best], m.pending[best+1:]...)
	}
	return batch
}

// runPass merges one batch of runs into a single combined run.
func (m *Merger) runPass(batch []Run) {
	start := time.Now()
	var bytesIn, minSeq int
	minSeq = batch[0].Seq
	for _, r := range batch {
		bytesIn += len(r.Data)
		if r.Seq < minSeq {
			minSeq = r.Seq
		}
	}
	out := m.cfg.Pool.Get(bytesIn)[:0]
	keys := 0
	err := func() (err error) {
		// The combiner is user code and this goroutine is the merger's own:
		// a panic here must reach Merge as an error, not end the process.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("shuffle: merge pass panicked: %v", p)
			}
		}()
		return MergeRuns(batch, m.cfg.Combine, func(kl kv.KeyList) error {
			out = kv.AppendKeyList(out, kl)
			keys++
			return nil
		})
	}()
	for _, r := range batch {
		m.cfg.Pool.Put(r.Data)
	}
	dur := time.Since(start)

	m.mu.Lock()
	if err != nil && m.err == nil {
		m.err = err
	} else if err == nil {
		m.pending = append(m.pending, Run{Data: out, Seq: minSeq})
		m.stats.Passes++
		m.stats.Time += dur
		m.maybeStartPassLocked()
	}
	m.passes--
	m.cond.Broadcast()
	m.mu.Unlock()

	if err == nil && m.cfg.OnPass != nil {
		m.cfg.OnPass(PassInfo{
			Runs: len(batch), BytesIn: bytesIn, BytesOut: len(out),
			Keys: keys, Start: start, Duration: dur,
		})
	}
}

// Merge waits for in-flight passes, then performs the final k-way pass
// over every remaining run, calling emit once per key in strictly
// increasing key order. The combiner is not applied here, so emit sees the
// (possibly pre-combined) value lists the reduce function should consume.
// Emitted slices alias the merger's buffers and stay valid until the
// merger is garbage; they are never recycled into the pool. Must be called
// once, after all Expected segments were Added.
func (m *Merger) Merge(emit func(kv.KeyList) error) error {
	m.mu.Lock()
	for m.passes > 0 {
		m.cond.Wait()
	}
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return err
	}
	if m.added != m.cfg.Expected {
		n := m.added
		m.mu.Unlock()
		return fmt.Errorf("shuffle: final merge with %d/%d segments", n, m.cfg.Expected)
	}
	final := m.pending
	m.pending = nil
	for _, r := range final {
		m.stats.FinalBytes += len(r.Data)
	}
	m.mu.Unlock()
	return MergeRuns(final, nil, emit)
}

// Stats returns the totals accumulated so far.
func (m *Merger) Stats() MergeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
