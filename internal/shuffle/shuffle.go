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
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/kv"
)

// Combiner pre-reduces a key's value list. core.CombineFunc is this type
// and holds its full contract, declining included. It must be associative
// and commutative, and may be applied zero or more times per key.
type Combiner func(key []byte, values [][]byte) [][]byte

// ---------------------------------------------------------------------------
// Runs

// ValidateRun scans a run and checks every frame decodes and keys are
// strictly increasing (each key appears once, sorted). It returns the
// number of keys. Reducers validate fetched segments up front so a corrupt
// fetch is reported against the serving tracker instead of surfacing
// mid-merge. It walks the run with the merge cursor's advance, which makes
// kv.ReadKeyList's checks without building value lists, so a valid run costs
// no allocation, as Hadoop's IFile checksum costs none.
func ValidateRun(data []byte) (keys int, err error) {
	var c cursor
	var prev []byte
	var prevPrefix uint64
	for {
		ok, err := c.advance(data)
		if err != nil {
			return keys, fmt.Errorf("shuffle: corrupt run at key %d: %w", keys, err)
		}
		if !ok {
			return keys, nil
		}
		key := data[c.keyStart:c.keyEnd]
		if keys > 0 && (c.prefix < prevPrefix || c.prefix == prevPrefix && bytes.Compare(prev, key) >= 0) {
			return keys, fmt.Errorf("shuffle: run not sorted at key %d (%q after %q)", keys, key, prev)
		}
		prev, prevPrefix, keys = key, c.prefix, keys+1
	}
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
// combine is non-nil and the key drew values from more than one run).
// Emitted slices alias the run buffers; the caller decides their lifetime.
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

// cursor is one KeyList frame of run number run, held as offsets into the
// run's data: the frame is data[start:end], its key data[keyStart:keyEnd],
// and its count value records data[vals:end]. prefix is the key's kv.Prefix,
// so most comparisons between cursors are one integer compare. A cursor
// holds no pointer, so stepping one and sifting the heap write none.
type cursor struct {
	start, keyStart, keyEnd, vals, end int
	count                              int
	prefix                             uint64
	run, seq                           int
}

// errLength reports a length or count that is no VLong, or one that
// reaches past the end of its run.
var errLength = errors.New("length overruns the run")

// advance moves c to the frame that follows its current one in data, making
// kv.ReadKeyList's checks without building a value list; ok=false at the end
// of data. On an error c is left as it was.
func (c *cursor) advance(data []byte) (ok bool, err error) {
	start := c.end
	if start == len(data) {
		return false, nil
	}
	b := data[start:]
	klen, n := readLength(b)
	if n == 0 {
		return false, errLength
	}
	keyEnd := n + klen
	count, used := readLength(b[keyEnd:])
	if used == 0 {
		return false, errLength
	}
	end := keyEnd + used
	vals := end
	for i := count; i > 0; i-- {
		vlen, used := readLength(b[end:])
		if used == 0 {
			return false, errLength
		}
		end += used + vlen
	}
	c.start, c.keyStart, c.keyEnd, c.vals, c.end = start, start+n, start+keyEnd, start+vals, start+end
	c.count, c.prefix = count, kv.Prefix(b[n:keyEnd])
	return true, nil
}

// readLength reads the VLong at the head of b as a length or a count and
// returns it with its size, or n = 0 if b does not hold that many bytes after
// it. So a count is bounded as kv.ReadKeyList bounds it: every value costs at
// least its length byte. A one-byte VLong, the common case, is read here
// without a call into kv.ReadVLong.
func readLength(b []byte) (v, n int) {
	if len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		return int(b[0]), 1
	}
	return readLongLength(b)
}

// readLongLength is readLength past its inline case.
func readLongLength(b []byte) (v, n int) {
	v64, n, err := kv.ReadVLong(b)
	if err != nil || v64 < 0 || v64 > int64(len(b)-n) {
		return 0, 0
	}
	return int(v64), n
}

// Iterator is the k-way merge frontier as a pull iterator: a min-heap of run
// cursors ordered by (current key, Seq). Next yields each key once, in
// strictly increasing order, equal keys' values concatenated in ascending
// Seq. It runs on the caller's goroutine and holds only the run buffers, so
// abandoning it mid-stream leaks nothing. MPI-D's grouped receiver
// (internal/core) pulls from it; MergeRuns and Merger drive it to the end.
type Iterator struct {
	runs    []Run
	cursors []cursor // cursors[i] walks runs[i]
	heap    []int32  // indices into cursors
	group   []cursor // the frames of the key pop last took, in ascending Seq
	count   int      // the values of those frames
	combine Combiner
	lists   kv.ListArena
}

// NewIterator positions a cursor on every non-empty run. combine, when
// non-nil, is applied to keys that drew values from more than one run.
func NewIterator(rs []Run, combine Combiner) (*Iterator, error) {
	frontier := make([]cursor, 2*len(rs))
	it := &Iterator{
		runs: rs, combine: combine, heap: make([]int32, 0, len(rs)),
		cursors: frontier[:len(rs)], group: frontier[len(rs):len(rs)],
	}
	if err := it.start(); err != nil {
		return nil, err
	}
	return it, nil
}

// start positions every cursor on its run's first frame and heaps the
// cursors of the non-empty runs. The caller has set runs, and cursors, heap
// and group each with room for one entry per run.
func (it *Iterator) start() error {
	for i, r := range it.runs {
		c := &it.cursors[i]
		*c = cursor{run: i, seq: r.Seq}
		ok, err := c.advance(r.Data)
		if err != nil {
			return err
		}
		if ok {
			it.heap = it.heap[:len(it.heap)+1]
			it.heap[len(it.heap)-1] = int32(i)
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.down(i)
	}
	return nil
}

// Next returns the smallest remaining key with its grouped values; ok=false
// after the last key. The returned slices alias the run buffers and stay
// valid as long as the caller keeps them.
func (it *Iterator) Next() (kl kv.KeyList, ok bool, err error) {
	key, ok, err := it.pop()
	if err != nil || !ok {
		return kv.KeyList{}, false, err
	}
	kl = kv.KeyList{Key: key, Values: it.values(&it.lists)}
	if it.combine != nil && len(it.group) > 1 && it.count > 0 {
		kl.Values = it.combine(kl.Key, kl.Values)
	}
	return kl, true, nil
}

// pop takes the smallest remaining key: its frames go to it.group in
// ascending Seq, and their cursors step past it. ok=false after the last key.
func (it *Iterator) pop() (key []byte, ok bool, err error) {
	if len(it.heap) == 0 {
		return nil, false, nil
	}
	top := &it.cursors[it.heap[0]]
	key, prefix := it.key(top), top.prefix
	it.group = it.group[:1]
	it.group[0], it.count = *top, top.count
	// Stepping a cursor past key K leaves the lowest remaining Seq holding
	// K, if any, on top: equal keys come off in ascending Seq.
	for {
		if err := it.step(); err != nil {
			return nil, false, err
		}
		if len(it.heap) == 0 {
			break
		}
		top = &it.cursors[it.heap[0]]
		if top.prefix != prefix || !bytes.Equal(it.key(top), key) {
			break
		}
		it.group = it.group[:len(it.group)+1]
		it.group[len(it.group)-1], it.count = *top, it.count+top.count
	}
	return key, true, nil
}

// values decodes the value records of the key pop last took into one list
// from lists.
func (it *Iterator) values(lists *kv.ListArena) [][]byte {
	vs := lists.Take(it.count)[:0]
	for i := range it.group {
		c := &it.group[i]
		for recs := it.runs[c.run].Data[c.vals:c.end]; len(recs) > 0; {
			l, n := readLength(recs) // advance checked every record
			vs, recs = append(vs, recs[n:n+l:n+l]), recs[n+l:]
		}
	}
	return vs
}

// key returns c's key, aliasing its run.
func (it *Iterator) key(c *cursor) []byte {
	return it.runs[c.run].Data[c.keyStart:c.keyEnd:c.keyEnd]
}

// frame returns the bytes of data[from:c.end] in c's run.
func (it *Iterator) frame(c *cursor, from int) []byte {
	return it.runs[c.run].Data[from:c.end]
}

// step moves the top cursor to its next frame, or drops it at its run's end.
func (it *Iterator) step() error {
	h := it.heap
	c := &it.cursors[h[0]]
	ok, err := c.advance(it.runs[c.run].Data)
	if err != nil {
		return err
	}
	if !ok {
		last := len(h) - 1
		h[0] = h[last]
		it.heap = it.heap[:last]
	}
	it.down(0)
	return nil
}

// before orders cursors x and y by current key, then run sequence. Unequal
// prefixes decide the keys, inline; only a tie goes on to tieBefore.
func (it *Iterator) before(x, y *cursor) bool {
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	return it.tieBefore(x, y)
}

// tieBefore is before for cursors whose keys share a prefix.
func (it *Iterator) tieBefore(x, y *cursor) bool {
	if c := bytes.Compare(it.key(x), it.key(y)); c != 0 {
		return c < 0
	}
	return x.seq < y.seq
}

// down restores the heap property from node i towards the leaves.
func (it *Iterator) down(i int) {
	h, cs := it.heap, it.cursors
	if i >= len(h) {
		return
	}
	c := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && it.before(&cs[h[r]], &cs[h[child]]) {
			child = r
		}
		if !it.before(&cs[h[child]], &cs[c]) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = c
}

// passFanIn is the run count up to which a merge pass keeps its frontier on
// the stack: Config.Factor's default with room to spare.
const passFanIn = 16

// mergePass merges rs into one run appended to out and returns it with its
// key count. It moves frames as they lie: a key from one run is copied as its
// frame, and a key found in several runs becomes one frame of the key, the
// summed count and each run's value records in ascending Seq. Only a key
// combine must see, one that drew values from more than one run, is decoded
// and re-encoded. The output is the frames kv.AppendKeyList writes over
// MergeRuns whenever the runs are canonically encoded; a non-canonical VLong
// in a copied frame stays as it was.
func mergePass(out []byte, rs []Run, combine Combiner) ([]byte, int, error) {
	var frontier [2 * passFanIn]cursor
	var heap [passFanIn]int32
	var lists kv.ListArena
	it := Iterator{runs: rs}
	if len(rs) <= passFanIn {
		it.cursors, it.group, it.heap = frontier[:len(rs)], frontier[len(rs):len(rs)], heap[:0]
	} else {
		all := make([]cursor, 2*len(rs))
		it.cursors, it.group, it.heap = all[:len(rs)], all[len(rs):len(rs)], make([]int32, 0, len(rs))
	}
	if err := it.start(); err != nil {
		return out, 0, err
	}
	for keys := 0; ; keys++ {
		key, ok, err := it.pop()
		if err != nil || !ok {
			return out, keys, err
		}
		g := it.group
		switch {
		case len(g) == 1:
			out = append(out, it.frame(&g[0], g[0].start)...)
		case combine != nil && it.count > 0:
			out = kv.AppendKeyList(out, kv.KeyList{Key: key, Values: combine(key, it.values(&lists))})
		default:
			out = kv.AppendVLong(kv.AppendBytes(out, key), int64(it.count))
			for i := range g {
				out = append(out, it.frame(&g[i], g[i].vals)...)
			}
		}
	}
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
	// Pool takes back the runs an intermediate pass consumes: the segment
	// buffers handed to Add and earlier passes' outputs. Optional.
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
	// The output is sized exactly: the pool seldom holds a buffer of a
	// pass's size, and a fresh pooled one is rounded up to its size class,
	// up to twice bytesIn.
	out := make([]byte, 0, bytesIn)
	var keys int
	err := func() (err error) {
		// The combiner is user code and this goroutine is the merger's own:
		// a panic here must reach Merge as an error, not end the process.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("shuffle: merge pass panicked: %v", p)
			}
		}()
		out, keys, err = mergePass(out, batch, m.cfg.Combine)
		return err
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
