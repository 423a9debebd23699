package mapred

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/mpi"
)

// The in-process half of the MPI-D failure model: what can end a job whose
// ranks are goroutines of one process — the caller cancels, its deadline
// passes, a mapper or reducer returns an error, panics, or is simply gone.
// Every case runs on the chan and the TCP world, under a hard deadline, and
// must end with the failure's own error (never the bare ErrWorldClosed its
// peers unblock with) and with every goroutine the job started gone.

var abortWorlds = map[string]func(n int) (*mpi.World, error){
	"chan": nil, // RunContext's default: mpi.NewWorld
	"tcp":  mpi.NewTCPWorld,
}

// runGuarded runs the job on its own goroutine and fails the test, with
// every goroutine's stack, if it has not returned in ten seconds; then it
// waits for the goroutine count to fall back to what it was before.
func runGuarded(t *testing.T, run func() (*Result, error)) (*Result, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run()
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("job hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if errors.Is(out.err, mpi.ErrWorldClosed) {
		t.Errorf("job error %q is the peers' ErrWorldClosed, not the failure's own", out.err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before the job, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
	return out.res, out.err
}

// lineSplits builds n splits of r one-word lines each.
func lineSplits(n, r int) []Split {
	splits := make([]Split, n)
	for i := range splits {
		text := []byte(strings.Repeat(fmt.Sprintf("w%03d\n", i), r))
		splits[i] = NewLineSplit(i, text)
	}
	return splits
}

var countReducer = ReducerFunc(func(key []byte, values [][]byte, emit Emit) error {
	return emit(key, []byte(fmt.Sprint(len(values))))
})

// TestContextEndsJobMidSpill stops a job that is in the middle of its map
// phase, spilling every ten records or so, by cancel and by deadline. The
// mappers never look at the context themselves — from the third split on
// they park on the test's gate, which opens once the context has ended and
// the world reports a cause — so what stops them is the runtime: the aborted
// world fails each mapper's next spill, a few records on and not at the end
// of its 1000-record split, and no mapper starts another split.
func TestContextEndsJobMidSpill(t *testing.T) {
	const (
		nMappers, nSplits, perSplit = 2, 40, 1000
		gateAt                      = 3
	)
	ends := map[string]struct {
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		"cancel": {func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, context.Canceled},
		"deadline": {func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 250*time.Millisecond)
		}, context.DeadlineExceeded},
	}
	for world, newWorld := range abortWorlds {
		if newWorld == nil {
			newWorld = func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil }
		}
		for name, end := range ends {
			t.Run(world+"/"+name, func(t *testing.T) {
				var splitsTaken, records atomic.Int64
				reached, gate := make(chan struct{}), make(chan struct{})
				var once sync.Once
				value := make([]byte, 100)
				job := Job{
					Name: "abort", Reducer: countReducer, NumReducers: 2, SpillThreshold: 1 << 10,
					Mapper: MapperFunc(func(off, line []byte, emit Emit) error {
						if len(off) == 1 && off[0] == 0 { // a split's first record
							if splitsTaken.Add(1) >= gateAt {
								once.Do(func() { close(reached) })
								<-gate
							}
						}
						records.Add(1)
						return emit(line, value)
					}),
				}
				splits := lineSplits(nSplits, perSplit)
				var w *mpi.World
				capture := func(n int) (*mpi.World, error) {
					var err error
					w, err = newWorld(n)
					return w, err
				}
				ctx, cancel := end.ctx()
				defer cancel()
				var splitsAtEnd, recordsAtEnd int64
				go func() {
					defer close(gate)
					<-reached // a mapper is in Map, so the world exists
					if end.want == context.Canceled {
						cancel()
					}
					<-ctx.Done()
					// Ending the context aborts the world from a goroutine of
					// its own; give that two seconds to be scheduled.
					for limit := time.Now().Add(2 * time.Second); w.Cause() == nil; runtime.Gosched() {
						if time.Now().After(limit) {
							t.Error("context ended, world never aborted")
							return
						}
					}
					if cause := w.Cause(); !errors.Is(cause, end.want) {
						t.Errorf("world aborted with cause %v, want %v", cause, end.want)
					}
					splitsAtEnd, recordsAtEnd = splitsTaken.Load(), records.Load()
				}()
				res, err := runGuarded(t, func() (*Result, error) {
					return RunContext(ctx, job, splits, Exec{Mappers: nMappers, NewWorld: capture})
				})
				if !errors.Is(err, end.want) || res != nil {
					t.Fatalf("RunContext = %v, %v; want no result and %v", res, err, end.want)
				}
				if got := splitsTaken.Load(); got > splitsAtEnd+nMappers-1 {
					t.Errorf("%d splits taken when the world aborted, %d in the end: mappers kept taking splits", splitsAtEnd, got)
				}
				if got := records.Load() - recordsAtEnd; got > 100 {
					t.Errorf("%d records mapped after the world aborted: the spill path never saw it", got)
				}
			})
		}
	}
}

// TestContextAlreadyDone: a job submitted under a dead context builds no
// world and maps nothing.
func TestContextAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := Job{Name: "dead", Reducer: countReducer, Mapper: MapperFunc(func(_, _ []byte, _ Emit) error {
		t.Error("mapper ran under a context that was already canceled")
		return nil
	})}
	_, err := runGuarded(t, func() (*Result, error) {
		return RunContext(ctx, job, lineSplits(4, 4), Exec{Mappers: 2, NewWorld: func(int) (*mpi.World, error) {
			t.Error("world built under a context that was already canceled")
			return mpi.NewWorld(1), nil
		}})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRankFailureEndsJob: a mapper or reducer that returns an error, panics
// or vanishes (runtime.Goexit — what t.FailNow does to a rank) ends the job
// with that failure while its peers are blocked in Recv: the master waiting
// for scheduling events, the reducers for data, and — in the "gone" case,
// where the only mapper never sends its end-of-stream — for ever.
func TestRankFailureEndsJob(t *testing.T) {
	errUser := errors.New("user code failed on purpose")
	third := func(fail func()) MapperFunc { // fails on the third split
		var n atomic.Int64
		return func(_, line []byte, emit Emit) error {
			if n.Add(1) == 3 {
				fail()
				return errUser
			}
			return emit(line, line)
		}
	}
	pass := MapperFunc(func(_, line []byte, emit Emit) error { return emit(line, line) })
	cases := map[string]struct {
		mappers int
		mapper  func() Mapper
		reducer Reducer
		check   func(error) bool
	}{
		"mapper-error":  {2, func() Mapper { return third(func() {}) }, countReducer, func(err error) bool { return errors.Is(err, errUser) }},
		"mapper-panic":  {2, func() Mapper { return third(func() { panic("mapper exploded") }) }, countReducer, func(err error) bool { return err != nil && strings.Contains(err.Error(), "mapper exploded") }},
		"mapper-gone":   {1, func() Mapper { return third(runtime.Goexit) }, countReducer, func(err error) bool { return err != nil && strings.Contains(err.Error(), "exited without returning") }},
		"reducer-error": {2, func() Mapper { return pass }, ReducerFunc(func([]byte, [][]byte, Emit) error { return errUser }), func(err error) bool { return errors.Is(err, errUser) }},
		"reducer-panic": {2, func() Mapper { return pass }, ReducerFunc(func([]byte, [][]byte, Emit) error { panic("reducer exploded") }), func(err error) bool { return err != nil && strings.Contains(err.Error(), "reducer exploded") }},
	}
	for world, newWorld := range abortWorlds {
		for name, c := range cases {
			t.Run(world+"/"+name, func(t *testing.T) {
				job := Job{Name: name, Mapper: c.mapper(), Reducer: c.reducer, NumReducers: 2, SpillThreshold: 64}
				// A deadline far beyond the test's own: the context is live,
				// so the abort callback is registered, and must not be what
				// ends the job.
				ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
				defer cancel()
				res, err := runGuarded(t, func() (*Result, error) {
					return RunContext(ctx, job, lineSplits(8, 1), Exec{Mappers: c.mappers, NewWorld: newWorld})
				})
				if res != nil || !c.check(err) {
					t.Fatalf("RunContext = %v, %v; want no result and the rank's own failure", res, err)
				}
			})
		}
	}
}
