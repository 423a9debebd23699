package mapred_test

import (
	"fmt"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestPublishedPartitionCarriesNoSlack: a reducer sizes its header slice from
// a guess — the bytes it received over the size of its first pair — and
// whoever holds the Result holds that slice's whole capacity; mpid-serve
// retains results, and an unclipped guess put 10 % on serve-open's peak RSS.
// So what a reducer publishes is exact or nearly so, whichever way the guess
// was wrong: the sort job (one 100-byte pair out per pair in: the guess is
// right), a sort of 8-byte pairs (the guess stops at one header per 48 bytes
// received: too low, grown by append), the service's WordCount (every word
// arrives once per mapper: twice too high) and the same WordCount without its
// combiner (every occurrence arrives, one pair per word leaves: far too high).
func TestPublishedPartitionCarriesNoSlack(t *testing.T) {
	jobs := map[string]func() (mapred.Job, []mapred.Split, error){
		"sort": func() (mapred.Job, []mapred.Split, error) {
			return workload.TeraSort(map[string]int64{"records": 20_000, "splits": 8, "reducers": 2})
		},
		"sort-small": func() (mapred.Job, []mapred.Split, error) {
			pairs := make([]kv.Pair, 5_000)
			for i := range pairs {
				pairs[i] = kv.P(fmt.Sprintf("k%05d", i), "vv")
			}
			job := mapred.Job{
				Name: "sort-small", NumReducers: 2,
				Mapper: mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error { return emit(k, v) }),
				Reducer: mapred.ReducerFunc(func(k []byte, values [][]byte, emit mapred.Emit) error {
					return emit(k, values[0])
				}),
			}
			return job, []mapred.Split{mapred.NewPairSplit(0, pairs[:2_500]), mapred.NewPairSplit(1, pairs[2_500:])}, nil
		},
		"wordcount": func() (mapred.Job, []mapred.Split, error) {
			return workload.WordCount(map[string]int64{"bytes": 512 << 10, "split": 64 << 10, "reducers": 2})
		},
		"wordcount-uncombined": func() (mapred.Job, []mapred.Split, error) {
			job, splits, err := workload.WordCount(map[string]int64{"bytes": 64 << 10, "split": 8 << 10, "reducers": 2})
			job.Combiner = nil
			return job, splits, err
		},
	}
	worlds := map[string]func(n int) (*mpi.World, error){"chan": nil, "tcp": mpi.NewTCPWorld}
	for name, build := range jobs {
		job, splits, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for world, newWorld := range worlds {
			t.Run(name+"/"+world, func(t *testing.T) {
				res, err := mapred.RunOnWorld(job, splits, 2, newWorld)
				if err != nil {
					t.Fatal(err)
				}
				for r, part := range res.ByReducer {
					if len(part) == 0 {
						t.Fatalf("reducer %d published nothing", r)
					}
					if slack := cap(part) - len(part); slack > len(part)/8 {
						t.Errorf("reducer %d published %d pairs in a slice of %d: %d spare headers, more than an eighth", r, len(part), cap(part), slack)
					}
				}
			})
		}
	}
}
