package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
)

// sumCombiner adds VLong-encoded counts into a single value, the WordCount
// combiner.
func sumCombiner(_ []byte, values [][]byte) [][]byte {
	var total int64
	for _, v := range values {
		n, _, err := kv.ReadVLong(v)
		if err != nil {
			panic(err)
		}
		total += n
	}
	return [][]byte{kv.AppendVLong(nil, total)}
}

func one() []byte { return kv.AppendVLong(nil, 1) }

// runWordCount pushes words from senders through MPI-D and returns the
// merged counts observed at the reducers.
func runWordCount(t *testing.T, cfg Config, nRanks int, wordsBySender map[int][]string) map[string]int64 {
	t.Helper()
	results := make(map[string]int64)
	var resultsMu = make(chan struct{}, 1)
	resultsMu <- struct{}{}

	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := cfg
		local.Comm = c
		d, err := Init(local)
		if err != nil {
			return err
		}
		if d.IsSender() {
			for _, w := range wordsBySender[c.Rank()] {
				if err := d.Send([]byte(w), one()); err != nil {
					return err
				}
			}
			if err := d.CloseSend(); err != nil {
				return err
			}
		}
		if d.IsReducer() {
			for {
				key, values, err := d.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				var total int64
				for _, v := range values {
					n, _, err := kv.ReadVLong(v)
					if err != nil {
						return err
					}
					total += n
				}
				<-resultsMu
				results[string(key)] += total
				resultsMu <- struct{}{}
			}
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func referenceCounts(wordsBySender map[int][]string) map[string]int64 {
	ref := make(map[string]int64)
	for _, words := range wordsBySender {
		for _, w := range words {
			ref[w]++
		}
	}
	return ref
}

func checkCounts(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d distinct keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("count[%q] = %d, want %d", k, got[k], w)
		}
	}
}

func sampleWords(senders []int, perSender int, seed int64) map[int][]string {
	vocab := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "mpi", "hadoop"}
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int][]string)
	for _, s := range senders {
		words := make([]string, perSender)
		for i := range words {
			words[i] = vocab[rng.Intn(len(vocab))]
		}
		out[s] = words
	}
	return out
}

func TestWordCountSingleReducer(t *testing.T) {
	words := sampleWords([]int{1, 2, 3}, 200, 1)
	got := runWordCount(t, Config{Reducers: []int{0}, Combiner: sumCombiner}, 4, words)
	checkCounts(t, got, referenceCounts(words))
}

func TestWordCountManyReducers(t *testing.T) {
	words := sampleWords([]int{3, 4, 5, 6}, 300, 2)
	got := runWordCount(t, Config{Reducers: []int{0, 1, 2}, Combiner: sumCombiner}, 7, words)
	checkCounts(t, got, referenceCounts(words))
}

func TestWordCountNoCombiner(t *testing.T) {
	words := sampleWords([]int{1}, 500, 3)
	got := runWordCount(t, Config{Reducers: []int{0}}, 2, words)
	checkCounts(t, got, referenceCounts(words))
}

func TestWordCountTinySpillThreshold(t *testing.T) {
	// Many spills: every few pairs trigger realignment and transmission.
	words := sampleWords([]int{1, 2}, 400, 4)
	got := runWordCount(t, Config{Reducers: []int{0}, Combiner: sumCombiner, SpillThreshold: 16}, 3, words)
	checkCounts(t, got, referenceCounts(words))
}

func TestGroupedModeKeysSortedAndUnique(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for _, w := range []string{"delta", "alpha", "charlie", "bravo", "alpha"} {
				if err := d.Send([]byte(w), []byte("v")); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		var keys []string
		for {
			key, values, err := d.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			keys = append(keys, string(key))
			if string(key) == "alpha" && len(values) != 4 { // 2 senders x 2 sends
				return fmt.Errorf("alpha has %d values, want 4", len(values))
			}
		}
		if !sort.StringsAreSorted(keys) {
			return fmt.Errorf("keys not sorted: %v", keys)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				return fmt.Errorf("duplicate key %q in grouped mode", keys[i])
			}
		}
		want := []string{"alpha", "bravo", "charlie", "delta"}
		if len(keys) != len(want) {
			return fmt.Errorf("keys = %v, want %v", keys, want)
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRouting(t *testing.T) {
	// Each reducer must only see keys the partitioner assigns to it.
	const nReducers = 3
	err := mpi.Run(4, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{1, 2, 3}})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for i := 0; i < 200; i++ {
				if err := d.Send([]byte(fmt.Sprintf("key-%d", i)), []byte("x")); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		myPartition := c.Rank() - 1
		for {
			key, _, err := d.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if p := HashPartitioner(key, nReducers); p != myPartition {
				return fmt.Errorf("reducer %d received key %q of partition %d", c.Rank(), key, p)
			}
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCustomPartitioner(t *testing.T) {
	// Route everything to partition 0 regardless of key.
	all0 := func(key []byte, n int) int { return 0 }
	err := mpi.Run(3, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0, 1}, Partitioner: all0})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for i := 0; i < 50; i++ {
				if err := d.Send([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		n := 0
		for {
			_, _, err := d.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			n++
		}
		if c.Rank() == 1 && n != 0 {
			return fmt.Errorf("reducer 1 got %d keys, want 0", n)
		}
		if c.Rank() == 0 && n != 50 {
			return fmt.Errorf("reducer 0 got %d keys, want 50", n)
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortValuesOption(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}, SortValues: true})
		if err != nil {
			return err
		}
		if d.IsSender() {
			for _, v := range []string{"zebra", "apple", "mango"} {
				if err := d.Send([]byte("k"), []byte(v)); err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		_, values, err := d.Recv()
		if err != nil {
			return err
		}
		if !sort.SliceIsSorted(values, func(i, j int) bool { return bytes.Compare(values[i], values[j]) < 0 }) {
			return fmt.Errorf("values not sorted: %q", values)
		}
		if _, _, err := d.Recv(); err != io.EOF {
			return fmt.Errorf("want EOF, got %v", err)
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSenderAlsoReducer(t *testing.T) {
	// Ranks that both send and reduce: close send first, then drain.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{
			Comm:     c,
			Reducers: []int{0, 1},
			Senders:  []int{0, 1},
		})
		if err != nil {
			return err
		}
		for i := 0; i < 100; i++ {
			if err := d.Send([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		if err := d.CloseSend(); err != nil {
			return err
		}
		seen := 0
		for {
			_, values, err := d.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if len(values) != 2 { // one from each rank
				return fmt.Errorf("key has %d values, want 2", len(values))
			}
			seen++
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountersAndCombinerEffect(t *testing.T) {
	// The combiner's purpose in the paper is "to reduce the memory
	// consuming and the transmission quantity": with a skewed key set the
	// combined run must ship fewer bytes.
	run := func(combine bool) Counters {
		var counters Counters
		words := make([]string, 3000)
		for i := range words {
			words[i] = "hot" // maximal skew
		}
		err := mpi.Run(2, func(c *mpi.Comm) error {
			cfg := Config{Comm: c, Reducers: []int{0}}
			if combine {
				cfg.Combiner = sumCombiner
			}
			d, err := Init(cfg)
			if err != nil {
				return err
			}
			if d.IsSender() {
				for _, w := range words {
					if err := d.Send([]byte(w), one()); err != nil {
						return err
					}
				}
				if err := d.Finalize(); err != nil {
					return err
				}
				counters = d.Counters()
				return nil
			}
			for {
				if _, _, err := d.Recv(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			return d.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		return counters
	}
	with := run(true)
	without := run(false)
	if with.PairsSent != 3000 || without.PairsSent != 3000 {
		t.Fatalf("PairsSent = %d/%d, want 3000", with.PairsSent, without.PairsSent)
	}
	if with.PairsCombined != 2999 {
		t.Errorf("PairsCombined = %d, want 2999", with.PairsCombined)
	}
	if with.BytesSent >= without.BytesSent {
		t.Errorf("combiner did not reduce transmission: %d >= %d", with.BytesSent, without.BytesSent)
	}
	if with.Spills == 0 || with.MessagesSent == 0 {
		t.Errorf("counters not populated: %+v", with)
	}
}

func TestConfigValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := Init(Config{Reducers: []int{0}}); err == nil {
			return errors.New("nil Comm accepted")
		}
		if _, err := Init(Config{Comm: c}); err == nil {
			return errors.New("empty Reducers accepted")
		}
		if _, err := Init(Config{Comm: c, Reducers: []int{5}}); err == nil {
			return errors.New("out-of-range reducer accepted")
		}
		if _, err := Init(Config{Comm: c, Reducers: []int{0, 0}}); err == nil {
			return errors.New("duplicate reducer accepted")
		}
		if _, err := Init(Config{Comm: c, Reducers: []int{0}, Senders: []int{9}}); err == nil {
			return errors.New("out-of-range sender accepted")
		}
		// A sender listed twice would leave every reducer waiting for an
		// end-of-stream marker that never comes.
		if _, err := Init(Config{Comm: c, Reducers: []int{0}, Senders: []int{1, 1}}); err == nil {
			return errors.New("duplicate sender accepted")
		}
		// The send arena addresses its bytes with int32 offsets.
		if _, err := Init(Config{Comm: c, Reducers: []int{0}, SpillThreshold: maxSpillThreshold + 1}); err == nil {
			return errors.New("a SpillThreshold past the arena's int32 offsets accepted")
		}
		if _, err := Init(Config{Comm: c, Reducers: []int{0}, SpillThreshold: maxSpillThreshold}); err != nil {
			return fmt.Errorf("the largest SpillThreshold refused: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoleEnforcement(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Reducer may not Send.
			if err := d.Send([]byte("k"), []byte("v")); err == nil {
				return errors.New("reducer Send accepted")
			}
			for {
				if _, _, err := d.Recv(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			return d.Finalize()
		}
		// Sender may not Recv.
		if _, _, err := d.Recv(); err == nil {
			return errors.New("sender Recv accepted")
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendAfterFinalizeFails(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := d.Finalize(); err != nil {
				return err
			}
			if err := d.Send([]byte("k"), []byte("v")); !errors.Is(err, ErrFinalized) {
				return fmt.Errorf("Send after Finalize: %v", err)
			}
			if err := d.Finalize(); err != nil { // idempotent
				return err
			}
			return nil
		}
		for {
			if _, _, err := d.Recv(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
		return d.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBadPartitionerCaught: a partitioner that answers out of range fails the
// job with the range check's own error, with one reducer and with two. The
// partitioner runs when Send buffers a key the buffer does not hold yet, so
// that Send returns the error, and buffers nothing: the Flush after it ships
// no message.
func TestBadPartitionerCaught(t *testing.T) {
	for _, reducers := range [][]int{{0}, {0, 1}} {
		t.Run(fmt.Sprintf("%d reducers", len(reducers)), func(t *testing.T) {
			err := mpi.Run(len(reducers)+1, func(c *mpi.Comm) error {
				d, err := Init(Config{
					Comm:        c,
					Reducers:    reducers,
					Partitioner: func(key []byte, n int) int { return n + 7 },
				})
				if err != nil {
					return err
				}
				if d.IsSender() {
					sendErr := d.Send([]byte("k"), []byte("v"))
					if sendErr == nil {
						return errors.New("Send buffered a pair partitioned out of range")
					}
					if err := d.Flush(); err != nil || d.Counters().MessagesSent != 0 {
						return fmt.Errorf("after the refused Send, Flush sent %d messages (err %v), want none", d.Counters().MessagesSent, err)
					}
					// The failure is surfaced to the job, which tears the
					// world down.
					return fmt.Errorf("partitioner failure: %w", sendErr)
				}
				for {
					if _, _, err := d.Recv(); err == io.EOF {
						break
					} else if err != nil {
						return err // unblocked by teardown
					}
				}
				return nil
			})
			want := fmt.Sprintf("mpid: partitioner returned %d for %d partitions", len(reducers)+7, len(reducers))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("job error = %v, want one containing %q", err, want)
			}
		})
	}
}

func TestHashPartitionerProperties(t *testing.T) {
	// Deterministic, in range, and reasonably balanced.
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		p := HashPartitioner(key, 7)
		if p != HashPartitioner(key, 7) {
			t.Fatal("partitioner not deterministic")
		}
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d has %d/7000 keys; poor balance %v", i, c, counts)
		}
	}
}

func TestRandomizedEquivalenceProperty(t *testing.T) {
	// Property: for random workloads, spill thresholds and reducer
	// counts, grouped MPI-D output always equals the sequential reference.
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		nRanks := 2 + rng.Intn(5)
		nReducers := 1 + rng.Intn(nRanks-1)
		reducers := make([]int, nReducers)
		for i := range reducers {
			reducers[i] = i
		}
		var senders []int
		for r := nReducers; r < nRanks; r++ {
			senders = append(senders, r)
		}
		if len(senders) == 0 {
			continue
		}
		words := sampleWords(senders, 50+rng.Intn(300), int64(trial))
		cfg := Config{
			Reducers:       reducers,
			Combiner:       sumCombiner,
			SpillThreshold: 1 << uint(4+rng.Intn(10)),
		}
		got := runWordCount(t, cfg, nRanks, words)
		checkCounts(t, got, referenceCounts(words))
	}
}

func TestHashPartitionerQuickProperties(t *testing.T) {
	// quick.Check: for arbitrary keys and partition counts, the hash-mod
	// selector is deterministic and in range.
	f := func(key []byte, n uint8) bool {
		parts := int(n%32) + 1
		p := HashPartitioner(key, parts)
		return p >= 0 && p < parts && p == HashPartitioner(key, parts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupedRecvEqualsReferenceQuick(t *testing.T) {
	// quick.Check over the whole library: arbitrary small workloads pushed
	// through MPI-D in grouped mode always reproduce the reference
	// multiset. Complements the seeded randomized test with
	// generator-driven inputs.
	f := func(raw [][]byte, spill uint16) bool {
		if len(raw) == 0 {
			return true
		}
		words := make([]string, 0, len(raw))
		for _, r := range raw {
			if len(r) == 0 {
				r = []byte{'x'}
			}
			if len(r) > 16 {
				r = r[:16]
			}
			words = append(words, string(r))
		}
		ref := make(map[string]int64)
		for _, w := range words {
			ref[w]++
		}
		got := make(map[string]int64)
		err := mpi.Run(2, func(c *mpi.Comm) error {
			d, err := Init(Config{
				Comm:           c,
				Reducers:       []int{0},
				SpillThreshold: int(spill%512) + 1,
			})
			if err != nil {
				return err
			}
			if d.IsSender() {
				for _, w := range words {
					if err := d.Send([]byte(w), one()); err != nil {
						return err
					}
				}
				return d.Finalize()
			}
			for {
				key, values, err := d.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				got[string(key)] += int64(len(values))
			}
			return d.Finalize()
		})
		if err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPaperStyleAliases(t *testing.T) {
	// The Table II names must behave identically to the methods.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := MPI_D_Init(Config{Comm: c, Reducers: []int{0}})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := MPI_D_Send(d, []byte("k"), []byte("v")); err != nil {
				return err
			}
			return MPI_D_Finalize(d)
		}
		klist, err := MPI_D_Recv(d)
		if err != nil {
			return err
		}
		if string(klist.Key) != "k" || len(klist.Values) != 1 {
			return fmt.Errorf("MPI_D_Recv = %+v", klist)
		}
		if _, err := MPI_D_Recv(d); err != io.EOF {
			return fmt.Errorf("want EOF, got %v", err)
		}
		return MPI_D_Finalize(d)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpillSizesPartitionBuffersWithoutPool: a spill realigns each partition
// into a buffer of the rank's own, sized for it, framing bytes included —
// an even share of the arena's serialized size plus partBufs' 512 bytes of
// slack — rather than grown from nothing by doubling. The chan transport
// hands the reducer its message itself, so the reducer gets an exact copy: a
// buffer of just its data, with no slack to pin.
func TestSpillSizesPartitionBuffersWithoutPool(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if c.Rank() < 2 {
			// Below the MPI-D layer on purpose: D.Recv hides the buffer.
			data, _, err := c.Recv(2, DataTag)
			if err != nil {
				return err
			}
			if cap(data) != len(data) {
				return fmt.Errorf("partition %d: %d bytes handed over in a buffer of %d, want an exact copy", c.Rank(), len(data), cap(data))
			}
			return nil
		}
		d, err := Init(Config{Comm: c, Reducers: []int{0, 1}, Senders: []int{2},
			Partitioner: func(key []byte, _ int) int { return int(key[0] - 'a') }})
		if err != nil {
			return err
		}
		// Init may hand over a pooled arena whose partition buffers an
		// earlier test grew past this spill's share; they would be kept,
		// not sized. Start from none, as a rank's first spill does.
		d.buf.parts = nil
		for i := 0; i < 400; i++ {
			for _, p := range []string{"a", "b"} { // two partitions of equal size
				if err := d.Send([]byte(fmt.Sprintf("%s%04d", p, i)), []byte("value")); err != nil {
					return err
				}
			}
		}
		if err := d.Flush(); err != nil {
			return err
		}
		for p, data := range d.buf.parts {
			if cap(data) != len(data)+512 {
				return fmt.Errorf("partition %d: %d bytes realigned into a buffer of %d, want one allocation of %d (regrown, or sized without the framing)",
					p, len(data), cap(data), len(data)+512)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
