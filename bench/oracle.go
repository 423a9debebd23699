package main

import (
	"bytes"
	"sort"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/serve"
)

// oracle is what a correct run of a workload's job must produce, computed
// once per run by plainRun.
type oracle struct {
	digest      []byte  // serve.OutputDigest of the reference output
	outputPairs int     // pairs the reducers emit
	mapPairs    int     // pairs the mappers emit
	records     int     // input records, i.e. Map calls
	groups      int     // distinct keys, i.e. Reduce calls
	seconds     float64 // wall time of the plain run: the no-framework baseline
}

// combineEvery bounds a key's buffered value list in the plain run when the
// job has a combiner; without it WordCount would hold millions of values.
const combineEvery = 256

// plainRun is the single-threaded reference: one loop over every record, a
// map from key to value list, one sort, one pass of the reducer. It shares
// the job's user functions (mapper, combiner, partitioner, reducer) and
// nothing of any engine, so it is both the correctness oracle and the plain
// loop the engines are compared against (bench.x_plain).
func plainRun(job mapred.Job, splits []mapred.Split) (oracle, error) {
	start := time.Now()
	groups := make(map[string][][]byte)
	var o oracle
	emit := func(key, value []byte) error {
		o.mapPairs++
		vals := append(groups[string(key)], bytes.Clone(value))
		if job.Combiner != nil && len(vals) >= combineEvery {
			vals = job.Combiner(key, vals)
		}
		groups[string(key)] = vals
		return nil
	}
	for _, s := range splits {
		err := s.Records(func(k, v []byte) error {
			o.records++
			return job.Mapper.Map(k, v, emit)
		})
		if err != nil {
			return o, err
		}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	o.groups = len(keys)
	partition := job.Partitioner
	if partition == nil {
		partition = core.HashPartitioner
	}
	res := &mapred.Result{ByReducer: make([][]kv.Pair, job.NumReducers)}
	for _, k := range keys {
		key := []byte(k)
		r := partition(key, job.NumReducers)
		out := func(key, value []byte) error {
			res.ByReducer[r] = append(res.ByReducer[r], kv.Pair{Key: key, Value: value}.Clone())
			return nil
		}
		if err := job.Reducer.Reduce(key, groups[k], out); err != nil {
			return o, err
		}
	}
	o.digest = serve.OutputDigest(res)
	o.outputPairs = countPairs(res)
	o.seconds = time.Since(start).Seconds()
	return o, nil
}

func countPairs(res *mapred.Result) int {
	n := 0
	for _, pairs := range res.ByReducer {
		n += len(pairs)
	}
	return n
}
