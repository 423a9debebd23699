package mapred_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/serve"
	"github.com/ict-repro/mpid/internal/workload"
)

// foldEvery is core's fold cadence (combineEvery). The reference needs it
// because a fold shrinks the buffered payload, which moves every later
// threshold spill: changing the cadence changes Spills, MessagesSent and
// BytesSent, and must fail here.
const foldEvery = 256

// refJob runs a job with one mapper the plainest way — Go maps, no arena, no
// MPI — and returns the send-side counters MPI-D must report and the output
// it must produce. One mapper makes the split order, and with it every spill
// boundary, deterministic.
func refJob(t *testing.T, job mapred.Job, splits []mapred.Split) (core.Counters, *mapred.Result) {
	t.Helper()
	threshold := job.SpillThreshold
	if threshold <= 0 {
		threshold = 1 << 20
	}
	partition := job.Partitioner
	if partition == nil {
		partition = core.HashPartitioner
	}
	sortedKeys := func(m map[string][][]byte) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	var want core.Counters
	buffered, payload := map[string][][]byte{}, 0
	received := make([]map[string][][]byte, job.NumReducers)
	for p := range received {
		received[p] = map[string][][]byte{}
	}
	spill := func() {
		if len(buffered) == 0 {
			return
		}
		want.Spills++
		partBytes := make([]int, job.NumReducers)
		for _, k := range sortedKeys(buffered) {
			values := buffered[k]
			if job.Combiner != nil {
				values = job.Combiner([]byte(k), values)
			}
			p := partition([]byte(k), job.NumReducers)
			partBytes[p] += len(kv.AppendKeyList(nil, kv.KeyList{Key: []byte(k), Values: values}))
			received[p][k] = append(received[p][k], values...)
		}
		for _, n := range partBytes {
			if n > 0 {
				want.MessagesSent++
				want.BytesSent += int64(n)
			}
		}
		buffered, payload = map[string][][]byte{}, 0
	}
	emit := func(key, value []byte) error {
		want.PairsSent++
		k := string(key)
		if _, ok := buffered[k]; !ok {
			payload += len(k)
		}
		values := append(buffered[k], append([]byte(nil), value...))
		payload += len(value)
		if job.Combiner != nil && len(values) >= foldEvery {
			for _, v := range values {
				payload -= len(v)
			}
			values = job.Combiner(key, values)
			for _, v := range values {
				payload += len(v)
			}
		}
		buffered[k] = values
		if payload >= threshold {
			spill()
		}
		return nil
	}
	for _, s := range splits {
		err := s.Records(func(k, v []byte) error { return job.Mapper.Map(k, v, emit) })
		if err != nil {
			t.Fatal(err)
		}
	}
	spill()

	out := &mapred.Result{ByReducer: make([][]kv.Pair, job.NumReducers)}
	for p, groups := range received {
		for _, k := range sortedKeys(groups) {
			err := job.Reducer.Reduce([]byte(k), groups[k], func(key, value []byte) error {
				out.ByReducer[p] = append(out.ByReducer[p], kv.Pair{Key: key, Value: value}.Clone())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return want, out
}

// TestSendCountersAndOutputMatchPlainReference pins what the benchmark's
// exact per-layer counts rest on: for WordCount (combiner folding under the
// threshold and across it) and TeraSort (no combiner, every byte spilled),
// at a small and at the default SpillThreshold, MPI-D's PairsSent, Spills,
// MessagesSent and BytesSent and the job's output digest equal the plain
// reference's.
func TestSendCountersAndOutputMatchPlainReference(t *testing.T) {
	wc, wcSplits, err := workload.WordCount(map[string]int64{"bytes": 512 << 10, "split": 64 << 10, "reducers": 2, "seed": 16})
	if err != nil {
		t.Fatal(err)
	}
	ts, tsSplits, err := workload.TeraSort(map[string]int64{"records": 6000, "splits": 4, "reducers": 2, "seed": 16})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		job       mapred.Job
		splits    []mapred.Split
		threshold int
	}{
		{wc, wcSplits, 8 << 10},
		{wc, wcSplits, 0},
		{ts, tsSplits, 16 << 10},
		{ts, tsSplits, 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/threshold=%d", c.job.Name, c.threshold), func(t *testing.T) {
			job := c.job
			job.SpillThreshold = c.threshold
			want, wantOut := refJob(t, job, c.splits)
			res, err := mapred.Run(job, c.splits, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := res.MapCounters
			if got.PairsSent != want.PairsSent || got.Spills != want.Spills ||
				got.MessagesSent != want.MessagesSent || got.BytesSent != want.BytesSent {
				t.Errorf("counters: got pairs=%d spills=%d messages=%d bytes=%d, reference pairs=%d spills=%d messages=%d bytes=%d",
					got.PairsSent, got.Spills, got.MessagesSent, got.BytesSent,
					want.PairsSent, want.Spills, want.MessagesSent, want.BytesSent)
			}
			if c.threshold > 0 && want.Spills < 5 {
				t.Errorf("reference spilled %d times at threshold %d, want a case with many spills", want.Spills, c.threshold)
			}
			if !bytes.Equal(serve.OutputDigest(res), serve.OutputDigest(wantOut)) {
				t.Error("job output differs from the plain reference's")
			}
		})
	}
}
