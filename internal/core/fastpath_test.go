package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
)

// ---------------------------------------------------------------------------
// Send buffer against a plain-map reference

// refBuffer is the send buffer's specification in the plainest terms: a map
// from key to its value list, folded by the combiner whenever a list reaches
// combineEvery. It shares no code with arenaBuffer; every value it holds is
// its own allocation, so a combiner result that aliases its input is harmless
// here by construction.
type refBuffer map[string][][]byte

func cloneValues(values [][]byte) [][]byte {
	out := make([][]byte, len(values))
	for i, v := range values {
		out[i] = append([]byte(nil), v...)
	}
	return out
}

func (r refBuffer) add(key, value []byte, combine CombineFunc) {
	vs := append(r[string(key)], append([]byte(nil), value...))
	if combine != nil && len(vs) >= combineEvery {
		vs = cloneValues(combine(key, vs))
	}
	r[string(key)] = vs
}

// payload is every buffered value plus each key once, or once per value when
// ungrouped (a buffer no combiner or value sort groups), counted the slow way.
func (r refBuffer) payload(ungrouped bool) int {
	total := 0
	for k, vs := range r {
		keys := 1
		if ungrouped {
			keys = len(vs)
		}
		total += keys * len(k)
		for _, v := range vs {
			total += len(v)
		}
	}
	return total
}

// sorted lists the buffered keys in spill order with their value lists.
func (r refBuffer) sorted() []streamEntry {
	out := make([]streamEntry, 0, len(r))
	for k, vs := range r {
		out = append(out, streamEntry{key: []byte(k), values: vs})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// snapshot realigns the arena, unfolded, into one partition and decodes it:
// what the arena would spill, in spill order.
func snapshot(t testing.TB, b *arenaBuffer) []streamEntry {
	t.Helper()
	parts := [][]byte{nil}
	b.realign(parts, nil, false)
	return decodeFrames(t, parts[0])
}

// decodeFrames decodes a realigned partition buffer frame by frame.
func decodeFrames(t testing.TB, data []byte) []streamEntry {
	t.Helper()
	var out []streamEntry
	for len(data) > 0 {
		kl, n, err := kv.ReadKeyList(data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, streamEntry{key: kl.Key, values: kl.Values})
		data = data[n:]
	}
	return out
}

// checkAgainstRef requires the arena's byte count and, when deep is set, its
// whole contents to equal the reference's.
func checkAgainstRef(t *testing.T, at string, b *arenaBuffer, ref refBuffer, deep bool) {
	t.Helper()
	if got, want := b.bytes(), ref.payload(b.ungrouped); got != want {
		t.Fatalf("%s: bytes() = %d, reference payload %d", at, got, want)
	}
	if deep {
		streamsEqual(t, map[int][]streamEntry{0: ref.sorted()}, map[int][]streamEntry{0: snapshot(t, b)})
	}
}

func TestSendBufferAccountingAcrossCombineAndSpillCycles(t *testing.T) {
	b := newArenaBuffer()
	// Keys over 16 bytes that share their first and last 16 bytes: a probe
	// compares them in keyArena, not by their words alone.
	long := make([][]byte, 3)
	for j := range long {
		long[j] = []byte(fmt.Sprintf("first-sixteen-by%cTES-last-sixteen", 'a'+j))
	}
	// Three fill/spill cycles; the hot key crosses combineEvery several
	// times per cycle, so the fold's accounting adjustments and its rewrite
	// of the key's block are exercised repeatedly, and on recycled arenas.
	for cycle := 0; cycle < 3; cycle++ {
		ref := refBuffer{}
		for i := 0; i < 3*combineEvery; i++ {
			key := []byte(fmt.Sprintf("key-%d", i%5))
			switch {
			case i%2 == 0:
				key = []byte("hot")
			case i%5 == 1:
				key = long[i%3]
			}
			value := kv.AppendVLong(nil, int64(i%9+1))
			b.add(key, value, sumCombiner)
			ref.add(key, value, sumCombiner)
			checkAgainstRef(t, fmt.Sprintf("cycle %d pair %d", cycle, i), b, ref, i%257 == 0)
		}
		checkAgainstRef(t, fmt.Sprintf("cycle %d end", cycle), b, ref, true)
		b.reset()
		if b.bytes() != 0 || !b.empty() {
			t.Fatalf("cycle %d: reset left bytes=%d empty=%v", cycle, b.bytes(), b.empty())
		}
	}
}

// TestArenaCombineAliasing pins CombineFunc's contract from the buffer's
// side: a result may alias the inputs, and the fold writes it back over the
// very block the inputs live in. Each combiner below breaks a write-back that
// copies result values in place one after the other. The runs subtest feeds
// each of them values that repeat in stretches of 50, so that a fold's inputs
// end in a run's copies, one slice repeated, and the results alias those.
func TestArenaCombineAliasing(t *testing.T) {
	combiners := []struct {
		name    string
		combine CombineFunc
	}{
		// CombinerFromReducer's fallback: the input list itself.
		{"identity", func(_ []byte, values [][]byte) [][]byte { return values }},
		// A subset of the inputs, latest first: sources sit behind and ahead
		// of where they are written.
		{"subset", func(_ []byte, values [][]byte) [][]byte {
			return [][]byte{values[len(values)-1], values[len(values)/2], values[0]}
		}},
		// One value longer than the whole block it was folded from.
		{"longer", func(_ []byte, values [][]byte) [][]byte {
			if len(values[0]) > 64<<10 {
				return values[:1] // stop doubling; still aliases
			}
			joined := bytes.Join(values, nil)
			return [][]byte{append(joined, joined...)}
		}},
		// More values out than one, some aliased and one fresh.
		{"several", func(_ []byte, values [][]byte) [][]byte {
			return [][]byte{values[1], sumCombiner(nil, values)[0], values[0], values[1]}
		}},
	}
	// fill sends 3 x combineEvery + 17 pairs, three in four to one hot key,
	// with value(i) as the i-th value, every one a VLong that sumCombiner
	// reads, and holds the buffer to refBuffer throughout.
	fill := func(t *testing.T, combine CombineFunc, value func(i int) []byte) {
		b, ref := newArenaBuffer(), refBuffer{}
		for i := 0; i < 3*combineEvery+17; i++ {
			key := []byte(fmt.Sprintf("key-%d", i%3))
			if i%4 != 0 {
				key = []byte("hot")
			}
			b.add(key, value(i), combine)
			ref.add(key, value(i), combine)
			checkAgainstRef(t, fmt.Sprintf("pair %d", i), b, ref, i%64 == 0)
		}
		checkAgainstRef(t, "end", b, ref, true)
	}
	for _, c := range combiners {
		t.Run(c.name, func(t *testing.T) {
			fill(t, c.combine, func(i int) []byte {
				value := kv.AppendVLong(nil, int64(i)*int64(i)) // 1 to 4 bytes
				if i%10 == 5 {
					// Either side of the one-byte length prefix: 127, 128
					// and 129 bytes.
					value = append(value, bytes.Repeat([]byte{byte(i)}, 127+i%3-len(value))...)
				}
				return value
			})
		})
	}
	t.Run("runs", func(t *testing.T) {
		for _, c := range combiners {
			t.Run(c.name, func(t *testing.T) {
				fill(t, c.combine, func(i int) []byte {
					// Stretch s repeats a value of 1 + s%9 bytes: either
					// side of the widest value a run packs.
					s := i / 50
					value := kv.AppendVLong(nil, int64(s))
					return append(value, bytes.Repeat([]byte{byte(s)}, s%9+1-len(value))...)
				})
			})
		}
	})
}

// zipfKeys draws n keys from a Zipf distribution over distinct words, the
// shape of the Figure 6 WordCount input.
func zipfKeys(n, distinct int) [][]byte {
	words := make([][]byte, distinct)
	for i := range words {
		words[i] = []byte(fmt.Sprintf("word%03d", i))
	}
	z := rand.NewZipf(rand.New(rand.NewSource(16)), 1.15, 1, uint64(distinct-1))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = words[z.Uint64()]
	}
	return keys
}

// TestArenaFootprintBoundedUnderCombine: a combining job that never reaches
// the spill threshold must hold memory in proportion to distinct keys, not to
// pairs emitted. Every WordCount value is 1, so a key's run counts its copies
// beside the entry and its block holds only the counts its folds left, a few
// bytes; the key arena, the entries, the run table and the slot table add
// about 90 bytes per key. All backing arrays together stay under 1 byte per
// (key, combineEvery slot). A buffer that stores each buffered value, or
// keeps even one byte per emitted pair, is over.
func TestArenaFootprintBoundedUnderCombine(t *testing.T) {
	const emits, distinct = 1_000_000, 500
	b := newArenaBuffer()
	one := kv.AppendVLong(nil, 1)
	for _, key := range zipfKeys(emits, distinct) {
		b.add(key, one, sumCombiner)
	}
	if len(b.entries) != distinct {
		t.Fatalf("%d distinct keys buffered, want %d", len(b.entries), distinct)
	}
	footprint := cap(b.arena) + cap(b.entries)*int(unsafe.Sizeof(arenaEntry{})) +
		cap(b.runs)*int(unsafe.Sizeof(arenaRun{})) + cap(b.slots)*int(unsafe.Sizeof(b.slots[0]))
	t.Logf("footprint %d bytes, %.2f per (key, combineEvery slot)", footprint, float64(footprint)/(distinct*combineEvery))
	if bound := distinct * combineEvery; footprint > bound {
		t.Fatalf("send buffer holds %d bytes after %d emits, want at most %d", footprint, emits, bound)
	}
	var total int64
	for _, e := range snapshot(t, b) {
		n, _, err := kv.ReadVLong(sumCombiner(e.key, e.values)[0])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != emits {
		t.Fatalf("buffered counts sum to %d, want %d", total, emits)
	}
}

// TestSendAllocatesNothingSteadyState holds D.Send at zero allocations per
// emit once the arena is warm, folds included, given a combiner that itself
// allocates nothing — and holds a later instance in the same process to zero
// from its very first pair, because it starts on the arena the first one
// finalized. Both instances must deliver the same bytes. Without a combiner
// (the nocombiner subtest) a warm Send plus its spills allocates nothing too.
func TestSendAllocatesNothingSteadyState(t *testing.T) {
	var buf [binary.MaxVarintLen64 + 1]byte
	var out [1][]byte
	combine := func(_ []byte, values [][]byte) [][]byte {
		var total int64
		for _, v := range values {
			n, _, _ := kv.ReadVLong(v)
			total += n
		}
		out[0] = kv.AppendVLong(buf[:0], total)
		return out[:]
	}
	// Round-robin keys: one pass folds every key exactly once, so block
	// capacities are settled after the second pass by construction.
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("word%03d", i))
	}
	one := kv.AppendVLong(nil, 1)

	// job runs one sender with the config cfg (its Comm, Reducers and Senders
	// filled in here) on world w through six passes of perPass pairs, the four
	// after the first warm ones counted, and returns the sender's arena, the
	// allocations per counted pass, the spills before Finalize and what the
	// reducer received.
	job := func(w *mpi.World, cfg Config, perPass, warm int) (arena *arenaBuffer, allocs uint64, spills int64, got []streamEntry) {
		defer w.Close()
		counted := make(chan struct{})
		signal := sync.OnceFunc(func() { close(counted) })
		err := mpi.RunOn(w, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				// The reducer starts only once the sender has counted, so
				// nothing it allocates setting up lands in the count; the
				// transport buffers whatever is sent before then.
				<-counted
			} else {
				defer signal() // on an early error too
			}
			rc := cfg
			rc.Comm, rc.Reducers, rc.Senders = c, []int{0}, []int{1}
			d, err := Init(rc)
			if err != nil {
				return err
			}
			if d.IsReducer() {
				for {
					k, vs, err := d.Recv()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					got = append(got, streamEntry{key: append([]byte(nil), k...), values: cloneValues(vs)})
				}
			}
			arena = d.buf
			passes := func(n int) {
				for i := 0; i < n*perPass; i++ {
					if err := d.Send(keys[i%len(keys)], one); err != nil {
						panic(err)
					}
				}
			}
			passes(warm)
			// Mallocs is read around exactly four passes (AllocsPerRun would
			// spend an uncounted warm-up pass first) and, like AllocsPerRun,
			// truncated to whole allocations per pass: an arena growing from
			// zero costs dozens in its first pass, a stray runtime
			// allocation rounds away.
			restore := runtime.GOMAXPROCS(1)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			passes(4)
			runtime.ReadMemStats(&m1)
			runtime.GOMAXPROCS(restore)
			allocs = (m1.Mallocs - m0.Mallocs) / 4
			signal()
			passes(2 - warm)
			spills = d.Counters().Spills
			return d.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		return arena, allocs, spills, got
	}

	// Without a combiner every pair is buffered and every spill ships. A
	// copying transport lets the sender retain its partition buffers across
	// spills, and the copying ring takes a spill below its inline size into a
	// slot, holding every spill until the reducer drains. Each 3 KiB spill
	// probes its first sampleSize pairs, finds their keys distinct and
	// buffers the rest unprobed.
	t.Run("nocombiner", func(t *testing.T) {
		w := mpi.NewRingWorldConfig(2, mpi.RingConfig{CopyPayloads: true, InlineBytes: 8 << 10})
		_, allocs, spills, got := job(w, Config{SpillThreshold: 3 << 10}, len(keys), 2)
		if allocs != 0 {
			t.Fatalf("Send without a combiner allocates %d times per pass in steady state, spills included, want 0", allocs)
		}
		if spills < 6 {
			t.Fatalf("only %d spills: the count did not cover the spill path", spills)
		}
		received := 0
		for _, e := range got {
			received += len(e.values)
		}
		if want := 6 * len(keys); received != want {
			t.Fatalf("reducer received %d values, want %d", received, want)
		}
	})

	combining := func(warm int) (*arenaBuffer, uint64, []streamEntry) {
		arena, allocs, _, got := job(mpi.NewWorld(2), Config{Combiner: combine}, combineEvery*len(keys), warm)
		return arena, allocs, got
	}
	first, allocs, want := combining(2)
	if allocs != 0 {
		t.Fatalf("Send allocates %d times per pass in steady state, want 0", allocs)
	}
	// The pool may hand the next instance another arena: it drops a share of
	// its puts under the race detector and everything at a GC cycle. Cycle
	// until an instance starts on an arena an earlier one finalized; every
	// job of the loop sends the same pairs, so any of them warms it.
	seen := map[*arenaBuffer]bool{first: true}
	for attempt := 0; ; attempt++ {
		arena, allocs, got := combining(0)
		streamsEqual(t, map[int][]streamEntry{0: want}, map[int][]streamEntry{0: got})
		if seen[arena] {
			if allocs != 0 {
				t.Fatalf("an instance on a recycled arena allocates %d times per pass from its first pair, want 0", allocs)
			}
			return
		}
		if attempt == 50 {
			t.Fatal("50 instances in a row started on a fresh arena: Finalize is not returning them")
		}
		seen[arena] = true
	}
}

func TestArenaBufferGrowKeepsValueOrder(t *testing.T) {
	b := newArenaBuffer()
	// Far more distinct keys than the initial slot table holds.
	const keys = 10 * arenaInitSlots
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			b.add([]byte(fmt.Sprintf("key-%05d", i)), []byte{byte(round)}, nil)
		}
	}
	entries := snapshot(t, b)
	if len(entries) != keys {
		t.Fatalf("realigned %d keys, want %d", len(entries), keys)
	}
	for i, e := range entries {
		if i > 0 && bytes.Compare(entries[i-1].key, e.key) >= 0 {
			t.Fatalf("keys out of order: %q then %q", entries[i-1].key, e.key)
		}
		if len(e.values) != 3 {
			t.Fatalf("key %q has %d values, want 3", e.key, len(e.values))
		}
		for round, v := range e.values {
			if len(v) != 1 || v[0] != byte(round) {
				t.Fatalf("key %q value %d = %v (insertion order broken)", e.key, round, v)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Typed unexpected-tag error (satellite)

func TestUnexpectedTagReturnsTypedError(t *testing.T) {
	var recvErr error
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}, Senders: []int{1}})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := d.Send([]byte("alpha"), kv.AppendVLong(nil, 1)); err != nil {
				return err
			}
			if err := d.Flush(); err != nil {
				return err
			}
			// A stray, off-protocol message lands mid-stream, before the
			// Done marker.
			if err := c.Send(0, 7777, []byte("not mpid traffic")); err != nil {
				return err
			}
			return d.Finalize()
		}
		for {
			_, _, err := d.Recv()
			if err == io.EOF {
				return errors.New("reducer reached EOF without seeing the stray tag")
			}
			if err != nil {
				recvErr = err
				return nil // swallow so mpi.Run reports no error; we assert below
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var tagErr *UnexpectedTagError
	if !errors.As(recvErr, &tagErr) {
		t.Fatalf("Recv error = %v, want *UnexpectedTagError", recvErr)
	}
	if tagErr.Tag != 7777 || tagErr.Source != 1 {
		t.Fatalf("typed error = %+v, want tag 7777 from rank 1", tagErr)
	}
}

// ---------------------------------------------------------------------------
// Grouped receive against the raw-reception oracle

// streamEntry is one Recv result with its bytes deep-copied out of the
// library's buffers.
type streamEntry struct {
	key    []byte
	values [][]byte
}

// turnTag carries collectStreamsInTurn's baton between sender ranks.
const turnTag = 4242

// collectStreams runs one MPI-D exchange and captures every reducer's exact
// Recv stream, in order.
func collectStreams(t *testing.T, cfg Config, nRanks int, pairsBySender map[int][]kv.Pair) map[int][]streamEntry {
	t.Helper()
	streams, _ := collectStreamsInTurn(t, cfg, nRanks, pairsBySender, false, recvGrouped)
	return streams
}

// collectFragments runs one MPI-D exchange whose reducers bypass Recv
// (recvRaw) and captures every fragment each reducer rank took off the
// communicator, in arrival order.
func collectFragments(t *testing.T, cfg Config, nRanks int, pairsBySender map[int][]kv.Pair, inTurn bool) map[int][]streamEntry {
	t.Helper()
	fragments, _ := collectStreamsInTurn(t, cfg, nRanks, pairsBySender, inTurn, recvRaw)
	return fragments
}

// recvGrouped drains a reducer's stream through Recv.
func recvGrouped(_ *mpi.Comm, d *D, _ int) ([]streamEntry, error) {
	var out []streamEntry
	for {
		key, values, err := d.Recv()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, copyEntry(key, values))
	}
}

// recvRaw drains a reducer's messages without core's receiver: wildcard
// MPI receives until every sender's DoneTag is in, each DataTag payload
// decoded frame by frame with kv.ReadKeyList.
func recvRaw(c *mpi.Comm, _ *D, senders int) ([]streamEntry, error) {
	var out []streamEntry
	for senders > 0 {
		payload, st, err := c.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return nil, err
		}
		switch st.Tag {
		case DoneTag:
			senders--
		case DataTag:
			for len(payload) > 0 {
				kl, n, err := kv.ReadKeyList(payload)
				if err != nil {
					return nil, err
				}
				out = append(out, copyEntry(kl.Key, kl.Values))
				payload = payload[n:]
			}
		default:
			return nil, fmt.Errorf("unexpected tag %d from rank %d", st.Tag, st.Source)
		}
	}
	return out, nil
}

// copyEntry deep-copies a key and its values out of the library's buffers.
func copyEntry(key []byte, values [][]byte) streamEntry {
	e := streamEntry{key: append([]byte(nil), key...)}
	for _, v := range values {
		e.values = append(e.values, append([]byte(nil), v...))
	}
	return e
}

// collectStreamsInTurn runs one MPI-D exchange, drains every reducer rank
// with recv, and reports how many data messages (= sorted runs) the senders
// shipped. With inTurn set, the ranks of cfg.Senders send one after the
// other, each handing a baton to the next once its stream is closed, so
// every reducer sees the same arrival order on every run and a multi-sender
// exchange can be compared byte for byte.
func collectStreamsInTurn(t *testing.T, cfg Config, nRanks int, pairsBySender map[int][]kv.Pair, inTurn bool,
	recv func(c *mpi.Comm, d *D, senders int) ([]streamEntry, error)) (map[int][]streamEntry, int64) {
	t.Helper()
	streams := make(map[int][]streamEntry)
	var runs int64
	var mu sync.Mutex
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := cfg
		local.Comm = c
		d, err := Init(local)
		if err != nil {
			return err
		}
		if d.IsSender() {
			turn := -1
			for i, r := range cfg.Senders {
				if inTurn && r == c.Rank() {
					turn = i
				}
			}
			if turn > 0 {
				if _, _, err := c.Recv(cfg.Senders[turn-1], turnTag); err != nil {
					return err
				}
			}
			for _, p := range pairsBySender[c.Rank()] {
				if err := d.SendPair(p); err != nil {
					return err
				}
			}
			if err := d.CloseSend(); err != nil {
				return err
			}
			if turn >= 0 && turn+1 < len(cfg.Senders) {
				if err := c.Send(cfg.Senders[turn+1], turnTag, nil); err != nil {
					return err
				}
			}
			mu.Lock()
			runs += d.Counters().MessagesSent
			mu.Unlock()
		}
		if d.IsReducer() {
			local, err := recv(c, d, len(cfg.Senders))
			if err != nil {
				return err
			}
			mu.Lock()
			streams[c.Rank()] = local
			mu.Unlock()
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	return streams, runs
}

// regroupFragments is the grouped receive's reference, built without core's
// receiver or the k-way merge: the same exchange received raw (recvRaw)
// yields every fragment in arrival order; concatenating each key's
// fragments in that order and draining keys sorted is, by Recv's contract,
// exactly the grouped stream.
func regroupFragments(t *testing.T, cfg Config, nRanks int, pairsBySender map[int][]kv.Pair, inTurn bool) map[int][]streamEntry {
	t.Helper()
	fragments := collectFragments(t, cfg, nRanks, pairsBySender, inTurn)
	out := make(map[int][]streamEntry, len(fragments))
	for rank, frags := range fragments {
		byKey := make(map[string][][]byte)
		for _, f := range frags {
			byKey[string(f.key)] = append(byKey[string(f.key)], f.values...)
		}
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[rank] = make([]streamEntry, 0, len(keys))
		for _, k := range keys {
			out[rank] = append(out[rank], streamEntry{key: []byte(k), values: byKey[k]})
		}
	}
	return out
}

func streamsEqual(t *testing.T, want, got map[int][]streamEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("reducer count: want %d, got %d", len(want), len(got))
	}
	for rank, ws := range want {
		gs := got[rank]
		if len(ws) != len(gs) {
			t.Fatalf("rank %d: want %d entries, got %d", rank, len(ws), len(gs))
		}
		for i := range ws {
			if !bytes.Equal(ws[i].key, gs[i].key) {
				t.Fatalf("rank %d entry %d: key %q vs %q", rank, i, ws[i].key, gs[i].key)
			}
			if len(ws[i].values) != len(gs[i].values) {
				t.Fatalf("rank %d key %q: %d values vs %d", rank, ws[i].key, len(ws[i].values), len(gs[i].values))
			}
			for j := range ws[i].values {
				if !bytes.Equal(ws[i].values[j], gs[i].values[j]) {
					t.Fatalf("rank %d key %q value %d: %x vs %x", rank, ws[i].key, j, ws[i].values[j], gs[i].values[j])
				}
			}
		}
	}
}

// genPairs produces a deterministic workload with hot keys (deep combiner
// folds), a long key tail and varied values.
func genPairs(n int, salt byte) []kv.Pair {
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		var key []byte
		switch {
		case i%3 == 0:
			key = []byte("hot")
		case i%3 == 1:
			key = []byte(fmt.Sprintf("warm-%d", i%7))
		default:
			key = []byte(fmt.Sprintf("cold-%04d", i))
		}
		pairs[i] = kv.Pair{Key: key, Value: kv.AppendVLong(nil, int64(int(salt)+i%11+1))}
	}
	return pairs
}

// sendVariants are the send-side configurations the byte-identity tests
// sweep.
var sendVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"plain", func(c *Config) {}},
	{"combiner", func(c *Config) { c.Combiner = sumCombiner }},
	{"sortValues", func(c *Config) { c.SortValues = true }},
	{"combiner+sortValues", func(c *Config) { c.Combiner = sumCombiner; c.SortValues = true }},
}

// TestGroupedStreamByteIdentical drives the same single-sender workload
// through grouped Recv and through the raw-reception oracle and requires
// the reducer-visible streams to match byte for byte. A single sender makes
// arrival order deterministic (per-pair FIFO), so this is an exact check;
// the tiny spill threshold forces far more runs than any merge fan-in the
// receiver used to fold in passes.
func TestGroupedStreamByteIdentical(t *testing.T) {
	pairs := map[int][]kv.Pair{1: genPairs(4000, 3)}
	for _, v := range sendVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := Config{Reducers: []int{0}, Senders: []int{1}, SpillThreshold: 512}
			v.mut(&cfg)
			streamsEqual(t, regroupFragments(t, cfg, 2, pairs, false), collectStreams(t, cfg, 2, pairs))
		})
	}
}

// TestGroupedManyRunsMultiSenderByteIdentical is the exact check for the
// single k-way pass: three senders whose key sets overlap ("hot" and the
// warm band recur in every spill of every sender) ship well over 64 runs to
// two reducers, taking turns so arrival order is the same on both sides.
// Every duplicate key must then concatenate its values in run-arrival
// order, exactly as regrouping the raw fragments does.
func TestGroupedManyRunsMultiSenderByteIdentical(t *testing.T) {
	pairs := map[int][]kv.Pair{2: genPairs(2500, 1), 3: genPairs(2500, 9), 4: genPairs(1500, 4)}
	for _, combiner := range []CombineFunc{nil, sumCombiner} {
		cfg := Config{Reducers: []int{0, 1}, Senders: []int{2, 3, 4}, SpillThreshold: 256, Combiner: combiner}
		grouped, runs := collectStreamsInTurn(t, cfg, 5, pairs, true, recvGrouped)
		if perReducer := runs / 2; perReducer < 64 {
			t.Fatalf("only %d runs per reducer, want at least 64", perReducer)
		}
		streamsEqual(t, regroupFragments(t, cfg, 5, pairs, true), grouped)
	}
}

// refStream is the fragment sequence one sender's pairs must arrive as at a
// single reducer, derived from the specification alone: buffer into refBuffer, and
// whenever the payload reaches the threshold (and once at close) hand over
// every key in sorted order with its combined, optionally sorted, value list.
func refStream(cfg Config, pairs []kv.Pair) []streamEntry {
	var out []streamEntry
	ref := refBuffer{}
	spill := func() {
		for _, e := range ref.sorted() {
			if cfg.Combiner != nil {
				e.values = cfg.Combiner(e.key, e.values)
			}
			if cfg.SortValues {
				sort.Slice(e.values, func(i, j int) bool { return bytes.Compare(e.values[i], e.values[j]) < 0 })
			}
			out = append(out, e)
		}
		clear(ref)
	}
	for _, p := range pairs {
		ref.add(p.Key, p.Value, cfg.Combiner)
		if ref.payload(cfg.Combiner == nil && !cfg.SortValues) >= cfg.SpillThreshold {
			spill()
		}
	}
	spill()
	return out
}

// TestStreamingStreamByteIdentical checks the whole send side — arena, fold,
// spill order, realign, wire — against refStream, in every send variant: the
// fragments the reducer receives raw must arrive in the same order with the
// same bytes, since spills serialize in sorted key order and a single
// sender's messages are FIFO.
func TestStreamingStreamByteIdentical(t *testing.T) {
	pairs := map[int][]kv.Pair{1: genPairs(3000, 5)}
	for _, v := range sendVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := Config{Reducers: []int{0}, Senders: []int{1}, SpillThreshold: 768}
			v.mut(&cfg)
			streamsEqual(t, map[int][]streamEntry{0: refStream(cfg, pairs[1])}, collectFragments(t, cfg, 2, pairs, false))
		})
	}
}

// TestGroupedMultiSenderAggregateEquivalent compares grouped Recv with the
// raw-reception oracle under concurrent senders. Arrival order across
// senders is racy, so the per-key value order is not deterministic; keys
// (sorted, exactly once) and per-key value multisets must still agree.
func TestGroupedMultiSenderAggregateEquivalent(t *testing.T) {
	pairs := map[int][]kv.Pair{2: genPairs(2500, 1), 3: genPairs(2500, 9), 4: genPairs(1000, 4)}
	cfg := Config{Reducers: []int{0, 1}, Senders: []int{2, 3, 4}, SpillThreshold: 1024, Combiner: sumCombiner}
	oracle := regroupFragments(t, cfg, 5, pairs, false)
	grouped := collectStreams(t, cfg, 5, pairs)

	normalize := func(streams map[int][]streamEntry) map[string][]string {
		out := make(map[string][]string)
		for rank, entries := range streams {
			for i, e := range entries {
				if i > 0 && bytes.Compare(entries[i-1].key, e.key) >= 0 {
					t.Fatalf("rank %d emitted key %q after %q", rank, e.key, entries[i-1].key)
				}
				vs := make([]string, len(e.values))
				for j, v := range e.values {
					vs[j] = string(v)
				}
				sort.Strings(vs)
				out[fmt.Sprintf("%d/%s", rank, e.key)] = vs
			}
		}
		return out
	}
	want, got := normalize(oracle), normalize(grouped)
	if len(want) != len(got) {
		t.Fatalf("distinct (rank, key) count: oracle %d, grouped %d", len(want), len(got))
	}
	for k, wv := range want {
		gv := got[k]
		if len(wv) != len(gv) {
			t.Fatalf("%s: %d values vs %d", k, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("%s value %d: %x vs %x", k, i, wv[i], gv[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// TCP faults: the fast path keeps PR 1's retry semantics (satellite)

// TestFastPathTCPFaultRetry injects a one-shot write fault under an MPI-D
// exchange over the real TCP transport: the sender's flush must surface the
// injected error (not silently lose the frame), and re-sending over the
// same world must redial and deliver everything — the transport retry
// semantics PR 1 established, now exercised through the pooled
// eager/rendezvous write path.
func TestFastPathTCPFaultRetry(t *testing.T) {
	sizes := []struct {
		name    string
		valSize int
	}{
		{"eager", 8},             // whole spill below the rendezvous threshold
		{"rendezvous", 96 << 10}, // single value forces the direct-write path
	}
	for _, sz := range sizes {
		t.Run(sz.name, func(t *testing.T) {
			inj := faults.New(1, faults.Rule{Component: "mpi.rank1", Operation: "write", Until: 1, Action: faults.Drop})
			w, err := mpi.NewTCPWorldOptions(2, mpi.TCPOptions{Injector: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			value := bytes.Repeat([]byte{0xAB}, sz.valSize)
			var got int
			var wg sync.WaitGroup
			wg.Add(1)
			errCh := make(chan error, 2)
			go func() { // reducer, rank 0
				defer wg.Done()
				d, err := Init(Config{Comm: w.Comm(0), Reducers: []int{0}, Senders: []int{1}})
				if err != nil {
					errCh <- err
					return
				}
				for {
					_, values, err := d.Recv()
					if err == io.EOF {
						return
					}
					if err != nil {
						errCh <- err
						return
					}
					got += len(values)
				}
			}()

			d, err := Init(Config{Comm: w.Comm(1), Reducers: []int{0}, Senders: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			send := func() error {
				for i := 0; i < 5; i++ {
					if err := d.Send([]byte(fmt.Sprintf("key-%d", i)), value); err != nil {
						return err
					}
				}
				return d.Flush()
			}
			// First attempt: the injected drop must surface as an error.
			if err := send(); !faults.IsInjected(err) {
				t.Fatalf("first send attempt: err = %v, want injected fault", err)
			}
			// Retry on the same world: the transport redials and delivers.
			if err := send(); err != nil {
				t.Fatalf("retry after injected fault: %v", err)
			}
			if err := d.Finalize(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if got != 5 {
				t.Fatalf("reducer received %d pairs, want the 5 retried ones", got)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Single-pass receiver (PR 14)

// TestSpillPrefixSortMatchesBytesCompare pins the spill order: the arena
// sorts (8-byte prefix, index) records, and that order must equal
// bytes.Compare on the full keys for every shape the prefix cannot tell
// apart by itself — shared prefixes, keys shorter than the prefix, padding
// look-alikes, the empty key and 0xFF bytes.
func TestSpillPrefixSortMatchesBytesCompare(t *testing.T) {
	adversarial := [][]byte{
		{}, {0}, {0, 0}, bytes.Repeat([]byte{0}, 8), bytes.Repeat([]byte{0}, 9),
		[]byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("a\x00b"), []byte("b"),
		[]byte("prefix00"), []byte("prefix00\x00"), []byte("prefix00a"), []byte("prefix00b"), []byte("prefix0"),
		[]byte("prefix01-long-tail-1"), []byte("prefix01-long-tail-2"), []byte("prefix01"),
		{0xFF}, {0xFF, 0xFF}, bytes.Repeat([]byte{0xFF}, 8), bytes.Repeat([]byte{0xFF}, 9),
		append(bytes.Repeat([]byte{0xFF}, 8), 0), {0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{0x7F}, {0x80}, {0x80, 0}, {0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 50; round++ {
		keys := append([][]byte(nil), adversarial...)
		// Random keys over a two-letter alphabet collide on long prefixes.
		for i := 0; i < 200; i++ {
			k := make([]byte, rng.Intn(12))
			for j := range k {
				k[j] = []byte{0, 0xFF, 'a'}[rng.Intn(3)]
			}
			keys = append(keys, k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

		b := newArenaBuffer()
		want := make(map[string]bool)
		for _, k := range keys {
			b.add(k, []byte{1}, nil)
			want[string(k)] = true
		}
		order := b.sortOrder()
		if len(order) != len(want) {
			t.Fatalf("round %d: sorted %d keys, want %d", round, len(order), len(want))
		}
		for i := 1; i < len(order); i++ {
			prev, _ := b.keyOf(order[i-1])
			key, _ := b.keyOf(order[i])
			if bytes.Compare(prev, key) >= 0 {
				t.Fatalf("round %d: %q sorted before %q", round, prev, key)
			}
		}
	}
}

// TestReducerErrorLeavesNoGoroutine fails the consumer of a grouped Recv
// stream after its first key. The merge used to run in its own goroutine
// feeding a 64-slot channel; an abandoned stream left it blocked on the send
// forever, pinning every run buffer. The pull merge has nothing to leave
// behind: the job ends with the consumer's own error and the goroutine
// count returns to what it was.
func TestReducerErrorLeavesNoGoroutine(t *testing.T) {
	errReduce := errors.New("reduce failed on purpose")
	before := runtime.NumGoroutine()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}, Senders: []int{1}, SpillThreshold: 2048})
		if err != nil {
			return err
		}
		if d.IsSender() {
			// Far more keys than the old channel buffered, over many runs.
			for _, p := range genPairs(5000, 2) {
				if err := d.SendPair(p); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		if _, _, err := d.Recv(); err != nil {
			return err
		}
		return errReduce
	})
	if !errors.Is(err, errReduce) {
		t.Fatalf("job error = %v, want the reducer's", err)
	}
	// Rank goroutines that already signalled completion may still be
	// unwinding; yield until they are gone. A leaked merge goroutine never
	// goes away, so the deadline only bounds the failing case.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the job, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
