package mapred

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
)

// A reducer builds its partition of Result where it reduces it: emit copies
// key and value into blocks the reducer allocated and files a header aliasing
// the copy. These tests pin what a holder of the Result may rely on, on the
// chan and the TCP world alike — the path is the same on both.

var identityMapper = MapperFunc(func(k, v []byte, emit Emit) error { return emit(k, v) })

// lineMapper keys a line of lineSplits' text by itself.
var lineMapper = MapperFunc(func(_, line []byte, emit Emit) error { return emit(line, nil) })

// byLastDigit sends w000, w002, … to reducer 0 and w001, w003, … to reducer 1.
func byLastDigit(key []byte, n int) int { return int(key[len(key)-1]-'0') % n }

// checkPairs fails the test at the first pair of got that differs from want.
func checkPairs(t *testing.T, when string, got, want []kv.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", when, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d is %.20q/%.20q, want %.20q/%.20q",
				when, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// blockBoundaries counts the places where a pair does not start at the byte
// after its predecessor's value, i.e. where the reducer started a new block.
func blockBoundaries(part []kv.Pair) int {
	n := 0
	for i := 1; i < len(part); i++ {
		prev := part[i-1].Value
		end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))
		if uintptr(unsafe.Pointer(unsafe.SliceData(part[i].Key))) != end {
			n++
		}
	}
	return n
}

// TestReducerOutputCrossesBlocks: a reducer that emits three times the bytes
// it received fills its first block — sized from what it received — and goes
// on into follow-on blocks of that same size, never a constant one: a
// retained Result holds its blocks, and blocks of 1 MiB put serve-open's peak
// RSS at 490 MB against 88 (EXPERIMENTS.md, "Reducers own their output"). No
// pair written before a boundary changes afterwards, and an append to any key
// or value reaches no neighbour: both are cap-limited.
func TestReducerOutputCrossesBlocks(t *testing.T) {
	const records, keyLen, valueLen, copies, pad = 400, 10, 90, 3, 4
	padded := func(v []byte, c int) []byte { // a fresh copy of v, pad bytes longer
		return append(v[:len(v):len(v)], byte('0'+c), '.', '.', '.')
	}
	input := make([]kv.Pair, records)
	var want []kv.Pair
	for i := range input {
		input[i] = kv.Pair{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: bytes.Repeat([]byte{byte('a' + i%26)}, valueLen)}
		for c := 0; c < copies; c++ {
			want = append(want, kv.Pair{Key: input[i].Key, Value: padded(input[i].Value, c)})
		}
	}
	triple := ReducerFunc(func(k []byte, values [][]byte, emit Emit) error {
		for _, v := range values {
			for c := 0; c < copies; c++ {
				if err := emit(k, padded(v, c)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for world, newWorld := range abortWorlds {
		t.Run(world, func(t *testing.T) {
			job := Job{Name: "triple", Mapper: identityMapper, Reducer: triple, SpillThreshold: 4 << 10}
			res, err := RunOnWorld(job, []Split{NewPairSplit(0, input[:records/2]), NewPairSplit(1, input[records/2:])}, 2, newWorld)
			if err != nil {
				t.Fatal(err)
			}
			part := res.ByReducer[0]
			checkPairs(t, "after the job", part, want)

			// Every block holds what the reducer received: the shuffle's
			// bytes, all of which went to the one reducer.
			perBlock := int(res.MapCounters.BytesSent) / (keyLen + valueLen + pad)
			blocks := (len(want) + perBlock - 1) / perBlock
			if got := blockBoundaries(part); got != blocks-1 || got < 2 {
				t.Fatalf("%d block boundaries in %d pairs, want %d (blocks of the %d bytes received, %d pairs each)",
					got, len(part), blocks-1, res.MapCounters.BytesSent, perBlock)
			}

			for _, p := range part {
				_ = append(p.Key, 'x')
				_ = append(p.Value, 'x')
			}
			checkPairs(t, "after appending to every key and value", part, want)
		})
	}
}

// TestPartBuilderExactHintNeverRegrows: like-sized pairs of at least 48 bytes
// whose size hint is exactly their key and value bytes get room for every
// header at the first emit, so the header slice never regrows, and Pairs
// returns it as built instead of copying it to trim the spare.
func TestPartBuilderExactHintNeverRegrows(t *testing.T) {
	for _, shape := range []struct{ pairs, keyLen, valueLen int }{{1000, 10, 90}, {1000, 8, 40}, {100, 16, 1000}} {
		t.Run(fmt.Sprintf("%d+%d", shape.keyLen, shape.valueLen), func(t *testing.T) {
			b := NewPartBuilder(func() int { return shape.pairs * (shape.keyLen + shape.valueLen) })
			key, value := make([]byte, shape.keyLen), make([]byte, shape.valueLen)
			var headers *kv.Pair
			for i := 0; i < shape.pairs; i++ {
				if err := b.Emit(key, value); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					headers = unsafe.SliceData(b.pairs)
				} else if unsafe.SliceData(b.pairs) != headers {
					t.Fatalf("header slice regrew at pair %d of %d", i, shape.pairs)
				}
			}
			if got := b.Pairs(); len(got) != shape.pairs || unsafe.SliceData(got) != headers {
				t.Fatalf("Pairs returned %d pairs in a copy of the header slice, want all %d in the slice as built", len(got), shape.pairs)
			}
		})
	}
}

// TestReducerOutputShapes: the partitions that are not a run of like-sized
// pairs — an empty key, an empty value, both; a reducer that is called and
// emits nothing, and one that is never called; a pair larger than the first
// block, with small ones before and after it.
func TestReducerOutputShapes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 64<<10) // 1 MiB from a reducer that received a few bytes
	identity := ReducerFunc(func(k []byte, values [][]byte, emit Emit) error {
		for _, v := range values {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	cases := map[string]struct {
		input       []kv.Pair
		reducer     Reducer
		partitioner core.PartitionFunc
		want        [][]kv.Pair
	}{
		"empty key and value": {
			input:   []kv.Pair{kv.P("", "v"), kv.P("a", ""), kv.P("", ""), kv.P("b", "w")},
			reducer: identity,
			want:    [][]kv.Pair{{kv.P("", "v"), kv.P("", ""), kv.P("a", ""), kv.P("b", "w")}},
		},
		"nothing emitted": {
			input: []kv.Pair{kv.P("a", "kept"), kv.P("z1", "dropped"), kv.P("z2", "dropped")},
			reducer: ReducerFunc(func(k []byte, values [][]byte, emit Emit) error {
				if k[0] == 'z' {
					return nil
				}
				return identity(k, values, emit)
			}),
			// Reducer 1 is called and emits nothing; reducer 2 gets no key.
			partitioner: func(key []byte, _ int) int {
				if key[0] == 'z' {
					return 1
				}
				return 0
			},
			want: [][]kv.Pair{{kv.P("a", "kept")}, nil, nil},
		},
		"pair larger than the first block": {
			input: []kv.Pair{kv.P("k", "v")},
			reducer: ReducerFunc(func(k []byte, _ [][]byte, emit Emit) error {
				for _, p := range []kv.Pair{{Key: k, Value: []byte("v")}, {Key: k, Value: big}, kv.P("after", "it"), {Key: big, Value: k}, kv.P("last", "")} {
					if err := emit(p.Key, p.Value); err != nil {
						return err
					}
				}
				return nil
			}),
			want: [][]kv.Pair{{kv.P("k", "v"), {Key: []byte("k"), Value: big}, kv.P("after", "it"), {Key: big, Value: []byte("k")}, kv.P("last", "")}},
		},
	}
	for world, newWorld := range abortWorlds {
		for name, c := range cases {
			t.Run(world+"/"+name, func(t *testing.T) {
				job := Job{Name: name, Mapper: identityMapper, Reducer: c.reducer, Partitioner: c.partitioner, NumReducers: len(c.want)}
				res, err := RunOnWorld(job, []Split{NewPairSplit(0, c.input)}, 1, newWorld)
				if err != nil {
					t.Fatal(err)
				}
				for r, want := range c.want {
					checkPairs(t, fmt.Sprintf("reducer %d", r), res.ByReducer[r], want)
				}
			})
		}
	}
}

// TestReducerFailureLeavesNoResult: a reducer that has already filed most of
// its partition when it fails — on its last key — or when the caller cancels
// — mid-reduce, when no rank touches the world any more, so the reducer's own
// look at the context is what ends the job — returns no Result, the failure's
// own error, and leaves no goroutine.
func TestReducerFailureLeavesNoResult(t *testing.T) {
	errUser := errors.New("user code failed on purpose")
	const nSplits = 8 // keys w000 … w007, four to a reducer; w007 is reducer 1's last
	lastKey := fmt.Sprintf("w%03d", nSplits-1)
	for world, newWorld := range abortWorlds {
		t.Run(world+"/last-key", func(t *testing.T) {
			var emittedLast atomic.Bool
			job := Job{Name: "last-key", Mapper: lineMapper, Partitioner: byLastDigit, NumReducers: 2,
				Reducer: ReducerFunc(func(key []byte, values [][]byte, emit Emit) error {
					if err := countReducer(key, values, emit); err != nil || string(key) != lastKey {
						return err
					}
					emittedLast.Store(true)
					return errUser
				})}
			res, err := runGuarded(t, func() (*Result, error) {
				return RunContext(context.Background(), job, lineSplits(nSplits, 1), Exec{Mappers: 2, NewWorld: newWorld})
			})
			if res != nil || !errors.Is(err, errUser) {
				t.Fatalf("RunContext = %v, %v; want no result and the reducer's own failure", res, err)
			}
			if !emittedLast.Load() {
				t.Fatal("the failing reducer never emitted its last key: the partition was not nearly whole")
			}
		})
		t.Run(world+"/cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			var reduced atomic.Int64
			job := Job{Name: "cancel", Mapper: lineMapper, Partitioner: byLastDigit, NumReducers: 2,
				Reducer: ReducerFunc(func(key []byte, values [][]byte, emit Emit) error {
					reduced.Add(1)
					once.Do(cancel) // mid-reduce: this key still runs to its end
					return countReducer(key, values, emit)
				})}
			res, err := runGuarded(t, func() (*Result, error) {
				return RunContext(ctx, job, lineSplits(nSplits, 1), Exec{Mappers: 2, NewWorld: newWorld})
			})
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext = %v, %v; want no result and context.Canceled", res, err)
			}
			// The canceling reducer stopped after that key; its peer may have
			// finished its own four before the cancel.
			if n := reduced.Load(); n > 1+nSplits/2 {
				t.Fatalf("%d of %d keys were reduced: the reducer that canceled went on past its first", n, nSplits)
			}
		})
	}
}

// TestWorldOfWrongSize: a NewWorld that returns a world of another size than
// it was asked for is refused before any rank runs, by one error naming both
// numbers, and the world is closed. Unchecked, a surplus rank fails a map task
// with "rank 3 is not a sender" — or, asking for work once the splits are
// gone, is released in a real mapper's place, whose end-of-stream the
// reducers then wait for for ever.
func TestWorldOfWrongSize(t *testing.T) {
	const need = 1 + 2 + 2 // master, reducers, mappers
	for world, newWorld := range abortWorlds {
		if newWorld == nil {
			newWorld = func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil }
		}
		for _, off := range []int{+1, -1} {
			t.Run(fmt.Sprintf("%s/%+d", world, off), func(t *testing.T) {
				job := Job{Name: "sized", Reducer: countReducer, NumReducers: 2, Mapper: MapperFunc(func(_, _ []byte, _ Emit) error {
					t.Error("a map task ran on a world of the wrong size")
					return nil
				})}
				var w *mpi.World
				res, err := runGuarded(t, func() (*Result, error) {
					return RunContext(context.Background(), job, lineSplits(4, 4), Exec{Mappers: 2, NewWorld: func(n int) (*mpi.World, error) {
						var err error
						w, err = newWorld(n + off)
						return w, err
					}})
				})
				want := fmt.Sprintf("world has %d ranks, job needs %d", need+off, need)
				if res != nil || err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("RunContext = %v, %v; want no result and %q", res, err, want)
				}
				if w.Cause() == nil {
					t.Error("the refused world was left open")
				}
			})
		}
	}
}
