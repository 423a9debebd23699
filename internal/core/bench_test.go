package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/shuffle"
)

// Micro-benchmarks for the MPI-D hot path. Run with -benchmem (ReportAllocs
// is set regardless): the allocs/op column is the contract.

// benchKeys is a mixed workload: one hot key, a warm band, a cold tail.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		switch {
		case i%3 == 0:
			keys[i] = []byte("hot")
		case i%3 == 1:
			keys[i] = []byte(fmt.Sprintf("warm-%d", i%17))
		default:
			keys[i] = []byte(fmt.Sprintf("cold-%05d", i%2048))
		}
	}
	return keys
}

// BenchmarkSend measures buffering one pair (the Send fast path minus the
// MPI world), including the incremental combiner. The payload never reaches
// a spill, as in the Figure 6 job: folds write in place, so the arena stays
// the size of its key set however large b.N gets.
func BenchmarkSend(b *testing.B) {
	buf := newArenaBuffer()
	keys := benchKeys(4096)
	value := kv.AppendVLong(nil, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(value) + 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.add(keys[i%len(keys)], value, sumCombiner)
	}
}

// BenchmarkSendZipf is BenchmarkSend over the Figure 6 job's key shape: words
// drawn Zipf 1.15 from 500 distinct, each with one shared encoded 1, as
// WordCountJob's mapper sends them. One op is one pair.
func BenchmarkSendZipf(b *testing.B) {
	buf := newArenaBuffer()
	keys := zipfKeys(1<<16, 500)
	value := kv.AppendVLong(nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.add(keys[i%len(keys)], value, sumCombiner)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
}

// BenchmarkSpill measures one full fill + realign cycle: buffer 4096 pairs,
// realign them partition by partition in sorted key order into retained
// buffers, reset. This is spill() minus the transport. The combiner
// sub-benchmark's allocations are sumCombiner's own (two per fold: every key
// at the spill, and the hot key as it fills). The other two are ungrouped, as
// Init sets up a buffer without a combiner, and show the buffer, the prefix
// sort and the verbatim realign at 0: nocombiner's keys repeat, so it probes
// every pair; distinct's do not, so it stops probing after sampleSize pairs.
func BenchmarkSpill(b *testing.B) {
	distinct := make([][]byte, 4096)
	for i := range distinct {
		distinct[i] = []byte(fmt.Sprintf("key-%08d", (i*2654435761)%(1<<30)))
	}
	impls := []struct {
		name    string
		combine CombineFunc
		keys    [][]byte
	}{
		{"combiner", sumCombiner, benchKeys(4096)},
		{"nocombiner", nil, benchKeys(4096)},
		{"distinct", nil, distinct},
	}
	const nParts = 4
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			buf := newArenaBuffer()
			buf.ungrouped = impl.combine == nil
			buf.nParts = nParts
			keys := impl.keys
			value := kv.AppendVLong(nil, 1)
			parts := make([][]byte, nParts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					buf.add(k, value, impl.combine)
				}
				for p := range parts {
					parts[p] = parts[p][:0]
				}
				buf.realign(parts, impl.combine, false)
				buf.reset()
			}
		})
	}
}

// genRuns serializes nRuns sorted runs the way spill does, each covering an
// overlapping key range so the merge has real cross-run grouping to do.
func genRuns(nRuns, keysPerRun int) [][]byte {
	runs := make([][]byte, nRuns)
	value := kv.AppendVLong(nil, 1)
	for r := range runs {
		var data []byte
		for k := 0; k < keysPerRun; k++ {
			key := fmt.Sprintf("key-%06d", (k*(nRuns+1)+r)%(keysPerRun*2))
			data = kv.AppendKeyList(data, kv.KeyList{Key: []byte(key), Values: [][]byte{value, value}})
		}
		runs[r] = sortRun(data)
	}
	return runs
}

// sortRun re-sorts a run's frames by key (genRuns builds them unsorted).
func sortRun(data []byte) []byte {
	var frames []kv.KeyList
	for rest := data; len(rest) > 0; {
		kl, n, err := kv.ReadKeyList(rest)
		if err != nil {
			panic(err)
		}
		frames = append(frames, kl)
		rest = rest[n:]
	}
	sort.Slice(frames, func(i, j int) bool { return kv.Compare(frames[i].Key, frames[j].Key) < 0 })
	out := make([]byte, 0, len(data))
	for _, f := range frames {
		out = kv.AppendKeyList(out, f)
	}
	return out
}

// BenchmarkRecvMerge pulls the single k-way pass Recv drains from over
// pre-serialized runs. One op is one key pulled (iterator set-up amortized
// over the keys of a drain), so allocs/op is the per-key decode cost.
func BenchmarkRecvMerge(b *testing.B) {
	data := genRuns(24, 512)
	runs := make([]shuffle.Run, len(data))
	var total int64
	for i, r := range data {
		runs[i] = shuffle.Run{Data: r, Seq: i}
		total += int64(len(r))
	}
	b.ReportAllocs()
	b.SetBytes(total / (2 * 512)) // input bytes per distinct key
	var it *shuffle.Iterator
	for i := 0; i < b.N; i++ {
		if it == nil {
			var err error
			if it, err = shuffle.NewIterator(runs, nil); err != nil {
				b.Fatal(err)
			}
		}
		_, ok, err := it.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			it = nil
		}
	}
}
