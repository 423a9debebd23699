package hadoop

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/shuffle"
	"github.com/ict-repro/mpid/internal/trace"
)

// jobName labels map outputs in the shuffle store.
const jobName = "job_local_0001"

// taskTracker runs tasks for one simulated machine: an RPC client to the
// jobtracker, an embedded jetty server holding this tracker's map outputs,
// and slot-bounded worker pools.
//
// A task that fails is reported per-task (taskFailed) and the tracker keeps
// serving; the jobtracker decides between re-queueing and aborting. The
// tracker itself dies in two ways: orderly — a heartbeat-level error drains
// running tasks and reports partial progress in its error — or abruptly,
// when an injected Crash kills it mid-heartbeat, taking its shuffle server
// (and every map output it held) down with it.
type taskTracker struct {
	idx    int             // slot index in the cluster, names the fault component
	id     int             // jobtracker-assigned id
	ctx    context.Context // job lifetime; cancellation stops fetches and heartbeats
	comp   string
	job    mapred.Job
	splits []mapred.Split
	cfg    Config
	inj    *faults.Injector
	met    *metrics.Registry
	tr     *trace.Tracer
	ev     *obs.Recorder
	jobCtx trace.Context // the job root span, from the register response

	rpc       *hadooprpc.MuxClient
	out       *outputCommitter // the job's output directory, shared by every tracker
	store     *jetty.Store
	jettySrv  *jetty.Server
	jettyAddr string
	fetch     *jetty.Client
	pool      *bufpool.Pool // fetch + merge buffers, shared across this tracker's reduces

	// combine is the job combiner every combine stage on this tracker uses
	// (map spill, reduce-side merge passes). When the job provides an
	// ObservedCombiner factory it is bound to the job's metrics registry
	// here, so combiner fallbacks anywhere on the tracker surface as
	// mapred.combiner.fallback.
	combine core.CombineFunc

	mapSem    chan struct{}
	reduceSem chan struct{}
	tasks     sync.WaitGroup

	mu         sync.Mutex
	taskErr    error
	aborting   bool
	mapsRun    int // completed map tasks, for partial-progress reporting
	reducesRun int // completed reduce tasks
	mapsFailed int
	redsFailed int
}

func newTaskTracker(ctx context.Context, idx int, jtAddr string, out *outputCommitter, job mapred.Job, splits []mapred.Split, cfg Config) (*taskTracker, error) {
	tt := &taskTracker{
		idx:       idx,
		ctx:       ctx,
		out:       out,
		comp:      fmt.Sprintf("hadoop.tracker%d", idx),
		job:       job,
		splits:    splits,
		cfg:       cfg,
		inj:       cfg.Injector,
		met:       cfg.Metrics,
		tr:        trace.New(fmt.Sprintf("tracker%d", idx)),
		ev:        cfg.Events,
		store:     jetty.NewStore(),
		fetch:     jetty.NewClient(),
		pool:      bufpool.New(),
		mapSem:    make(chan struct{}, cfg.MapSlots),
		reduceSem: make(chan struct{}, cfg.ReduceSlots),
	}
	tt.combine = job.Combiner
	if job.ObservedCombiner != nil {
		tt.combine = job.ObservedCombiner(cfg.Metrics)
	}
	// The shuffle fetch client shares the RPC retry budget, the fault
	// injector, the job's metrics registry and the tracker's buffer pool,
	// so fetch buffers recycle through the merger and back into the next
	// fetch.
	tt.fetch.MaxAttempts = cfg.RPC.MaxAttempts
	tt.fetch.Backoff = cfg.RPC.Backoff
	tt.fetch.Injector = cfg.Injector
	tt.fetch.Metrics = cfg.Metrics
	tt.fetch.Events = cfg.Events
	tt.fetch.Pool = tt.pool
	tt.fetch.SetSeed(int64(idx) + 1)

	tt.jettySrv = jetty.NewServer(tt.store)
	tt.jettySrv.Injector = cfg.Injector
	tt.jettySrv.Component = tt.comp + ".jetty"
	tt.jettySrv.Metrics = cfg.Metrics
	tt.jettySrv.Tracer = tt.tr
	addr, err := tt.jettySrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tt.jettyAddr = addr

	tt.rpc, err = hadooprpc.DialMuxOptions(jtAddr, jtProtocolName, jtProtocolVersion, cfg.rpcOptions())
	if err != nil {
		tt.jettySrv.Close()
		return nil, err
	}
	idBytes, err := tt.rpc.Call("register", []byte(addr))
	if err != nil {
		tt.close()
		return nil, err
	}
	id, n, err := kv.ReadVLong(idBytes)
	if err != nil {
		tt.close()
		return nil, err
	}
	tt.id = int(id)
	// The response may carry the job's trace context after the id; a
	// jobtracker without tracing simply doesn't send it, and this tracker's
	// spans then start their own traces.
	if rest := idBytes[n:]; len(rest) > 0 {
		if b, _, err := kv.ReadBytes(rest); err == nil {
			if ctx, err := trace.DecodeContext(b); err == nil {
				tt.jobCtx = ctx
			}
		}
	}
	return tt, nil
}

func (tt *taskTracker) close() {
	tt.rpc.Close()
	tt.jettySrv.Close()
	tt.fetch.Close()
}

// noteErr records a tracker-level problem (not a task failure).
func (tt *taskTracker) noteErr(err error) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.taskErr == nil {
		tt.taskErr = err
	}
}

// reportTaskFailed tells the jobtracker one task attempt failed. The
// tracker itself stays up; re-queue vs abort is the jobtracker's call.
func (tt *taskTracker) reportTaskFailed(kind string, task int, taskErr error) {
	tt.mu.Lock()
	if kind == taskKindMap {
		tt.mapsFailed++
	} else {
		tt.redsFailed++
	}
	tt.mu.Unlock()
	params := [][]byte{
		kv.AppendVLong(nil, int64(tt.id)),
		[]byte(kind),
		kv.AppendVLong(nil, int64(task)),
		[]byte(taskErr.Error()),
	}
	if blob := trace.EncodeSpans(tt.tr.Drain()); blob != nil {
		params = append(params, blob)
	}
	if _, err := tt.rpc.Call("taskFailed", params...); err != nil {
		tt.noteErr(fmt.Errorf("hadoop: reporting %s task %d failure: %w", kind, task, err))
	}
}

// progress summarizes completed work for partial-progress error reports.
func (tt *taskTracker) progress() string {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return fmt.Sprintf("%d maps and %d reduces completed, %d/%d attempts failed",
		tt.mapsRun, tt.reducesRun, tt.mapsFailed, tt.redsFailed)
}

// run is the heartbeat loop: report free slots, launch whatever comes back,
// exit on job completion or abort. Heartbeats carry a sequence number so
// the jobtracker can replay a response whose first delivery was lost to a
// transport failure.
func (tt *taskTracker) run() error {
	for seq := int64(1); ; seq++ {
		if err := tt.ctx.Err(); err != nil {
			// Job canceled or drained: flip to aborting so running copy
			// loops stop, drain tasks, and report the context's error.
			tt.mu.Lock()
			tt.aborting = true
			tt.mu.Unlock()
			tt.tasks.Wait()
			return fmt.Errorf("hadoop: tracker %d canceled: %w", tt.idx, err)
		}
		if err := tt.inj.Check(tt.comp, "heartbeat", ""); err != nil {
			if faults.IsCrash(err) {
				// Abrupt death: no goodbyes, no draining. The shuffle
				// server dies too — completed map outputs become
				// unreachable, exactly what a machine crash does.
				tt.rpc.Close()
				tt.jettySrv.Close()
				return fmt.Errorf("hadoop: tracker %d crashed: %w", tt.idx, err)
			}
			time.Sleep(tt.cfg.Heartbeat) // transient: skip this beat
			continue
		}
		params := [][]byte{
			kv.AppendVLong(nil, int64(tt.id)),
			kv.AppendVLong(nil, seq),
			kv.AppendVLong(nil, int64(free(tt.mapSem))),
			kv.AppendVLong(nil, int64(free(tt.reduceSem))),
		}
		// Ship spans drained since the last report; serve-side shuffle
		// spans have no completion RPC of their own and ride here.
		if blob := trace.EncodeSpans(tt.tr.Drain()); blob != nil {
			params = append(params, blob)
		}
		resp, err := tt.rpc.Call("heartbeat", params...)
		if err != nil {
			// Orderly shutdown: drain running tasks, then report with
			// partial progress.
			tt.tasks.Wait()
			return fmt.Errorf("hadoop: tracker %d heartbeat: %w (%s)", tt.idx, err, tt.progress())
		}
		stop, err := tt.dispatch(resp)
		if err != nil {
			tt.tasks.Wait()
			return fmt.Errorf("%w (%s)", err, tt.progress())
		}
		if stop {
			tt.tasks.Wait()
			tt.mu.Lock()
			defer tt.mu.Unlock()
			return tt.taskErr
		}
		time.Sleep(tt.cfg.Heartbeat)
	}
}

// free reports a semaphore's free slots.
func free(sem chan struct{}) int { return cap(sem) - len(sem) }

// dispatch decodes a heartbeat response and launches tasks. It reports
// stop=true on job end or abort.
func (tt *taskTracker) dispatch(resp []byte) (bool, error) {
	for len(resp) > 0 {
		act, n, err := kv.ReadVLong(resp)
		if err != nil {
			return false, fmt.Errorf("hadoop: corrupt heartbeat response: %w", err)
		}
		resp = resp[n:]
		switch act {
		case actJobDone:
			return true, nil
		case actAbort:
			tt.mu.Lock()
			tt.aborting = true
			tt.mu.Unlock()
			return true, nil
		case actLaunchMap, actLaunchReduce:
			id64, n, err := kv.ReadVLong(resp)
			if err != nil {
				return false, fmt.Errorf("hadoop: corrupt task id: %w", err)
			}
			resp = resp[n:]
			att64, n, err := kv.ReadVLong(resp)
			if err != nil {
				return false, fmt.Errorf("hadoop: corrupt attempt number: %w", err)
			}
			resp = resp[n:]
			span64, n, err := kv.ReadVLong(resp)
			if err != nil {
				return false, fmt.Errorf("hadoop: corrupt attempt span id: %w", err)
			}
			resp = resp[n:]
			// Parent the task span under the scheduler's attempt span.
			pctx := trace.Context{Trace: tt.jobCtx.Trace, Span: uint64(span64)}
			if act == actLaunchMap {
				tt.launchMap(int(id64), int(att64), pctx)
			} else {
				tt.launchReduce(int(id64), int(att64), pctx)
			}
		default:
			return false, fmt.Errorf("hadoop: unknown action %d", act)
		}
	}
	return false, nil
}

func (tt *taskTracker) launchMap(task, attempt int, pctx trace.Context) {
	tt.mapSem <- struct{}{}
	tt.tasks.Add(1)
	go func() {
		defer tt.tasks.Done()
		defer func() { <-tt.mapSem }()
		ph, err := tt.runMapTask(task, attempt, pctx)
		if err != nil {
			tt.reportTaskFailed(taskKindMap, task, fmt.Errorf("map task %d: %w", task, err))
			return
		}
		// The task's spans are finished before the completion RPC, so the
		// shipped batch always covers the attempt that just completed.
		params := [][]byte{
			kv.AppendVLong(nil, int64(tt.id)),
			kv.AppendVLong(nil, int64(task)),
			kv.AppendVLong(nil, int64(ph.run)),
			kv.AppendVLong(nil, int64(ph.spill)),
		}
		if blob := trace.EncodeSpans(tt.tr.Drain()); blob != nil {
			params = append(params, blob)
		}
		if _, err := tt.rpc.Call("mapCompleted", params...); err != nil {
			tt.noteErr(err)
			return
		}
		tt.mu.Lock()
		tt.mapsRun++
		tt.mu.Unlock()
	}()
}

func (tt *taskTracker) launchReduce(task, attempt int, pctx trace.Context) {
	tt.reduceSem <- struct{}{}
	tt.tasks.Add(1)
	go func() {
		defer tt.tasks.Done()
		defer func() { <-tt.reduceSem }()
		out, ph, err := tt.runReduceTask(task, attempt, pctx)
		if err != nil {
			tt.reportTaskFailed(taskKindReduce, task, fmt.Errorf("reduce task %d: %w", task, err))
			return
		}
		// The part goes to the job's output directory; the completion RPC
		// carries its size only, as Hadoop's status report does. A tracker
		// crashing here leaves a staged part no completion names.
		pairs := out.Pairs()
		tt.out.stage(task, attempt, pairs, out.Size())
		if err := tt.inj.Check(tt.comp, "commit", ""); err != nil {
			if !faults.IsCrash(err) {
				tt.reportTaskFailed(taskKindReduce, task, fmt.Errorf("reduce task %d: %w", task, err))
			}
			return
		}
		params := [][]byte{
			kv.AppendVLong(nil, int64(tt.id)),
			kv.AppendVLong(nil, int64(task)),
			kv.AppendVLong(nil, int64(attempt)),
			kv.AppendVLong(nil, int64(len(pairs))),
			kv.AppendVLong(nil, int64(out.Size())),
			kv.AppendVLong(nil, int64(ph.copy)),
			kv.AppendVLong(nil, int64(ph.sort)),
			kv.AppendVLong(nil, int64(ph.reduce)),
			kv.AppendVLong(nil, int64(ph.merge)),
		}
		if blob := trace.EncodeSpans(tt.tr.Drain()); blob != nil {
			params = append(params, blob)
		}
		if _, err := tt.rpc.Call("reduceCompleted", params...); err != nil {
			tt.noteErr(err)
			return
		}
		tt.mu.Lock()
		tt.reducesRun++
		tt.mu.Unlock()
	}()
}

// recoverTask, deferred first in a task body, turns a panic in the user's
// mapper, combiner or reducer into the task's error: the attempt is reported
// through taskFailed like any other task error (maxTaskAttempts then fails a
// job whose code panics every time) and the process — other tasks, other
// tenants' jobs — keeps running.
func recoverTask(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panicked: %v", p)
	}
}

// mapPhases is the wall-time breakdown of one map task: run is the record
// iteration through the user map function, spill is the combine/serialize/
// publish stage.
type mapPhases struct {
	run   time.Duration
	spill time.Duration
}

// runMapTask maps one split, partitions the output, optionally combines,
// and publishes per-reduce partitions into the local shuffle store.
func (tt *taskTracker) runMapTask(task, attempt int, pctx trace.Context) (ph mapPhases, err error) {
	defer recoverTask(&err)
	span := tt.tr.StartChild(pctx, fmt.Sprintf("m%d", task), trace.KindTask)
	span.Annotate("attempt", fmt.Sprint(attempt))
	defer span.End()
	nParts := tt.job.NumReducers
	partitioner := tt.job.Partitioner
	if partitioner == nil {
		partitioner = core.HashPartitioner
	}
	out := newMapOutput(splitLen(tt.splits[task]))
	emit := func(key, value []byte) error {
		p := partitioner(key, nParts)
		if p < 0 || p >= nParts {
			return fmt.Errorf("partitioner returned %d for %d partitions", p, nParts)
		}
		return out.add(p, key, value)
	}
	runSpan := span.Child("map.run", trace.KindPhase)
	defer runSpan.End()
	runStart := time.Now()
	if err := tt.splits[task].Records(func(k, v []byte) error {
		return tt.job.Mapper.Map(k, v, emit)
	}); err != nil {
		span.Annotate("error", err.Error())
		return ph, err
	}
	ph.run = time.Since(runStart)
	runSpan.End()
	tt.met.Timer("task.map.run").ObserveDuration(ph.run)

	// Spill: sort the index, combine and serialize each partition, publish
	// to the store. Sorting here makes every published segment a run — framed
	// KeyLists in strictly increasing key order — which is what lets the
	// reduce side merge instead of re-sort (the map-side half of the
	// pipelined shuffle; see internal/shuffle).
	spillSpan := span.Child("map.spill", trace.KindPhase)
	defer spillSpan.End()
	spillStart := time.Now()
	var spilled int
	for p, seg := range out.spill(nParts, tt.combine) {
		spilled += len(seg)
		tt.store.Put(jetty.OutputKey{Job: jobName, Map: task, Reduce: p}, seg)
	}
	ph.spill = time.Since(spillStart)
	spillSpan.End()
	tt.met.Timer("task.map.spill").ObserveDuration(ph.spill)
	sctx := spillSpan.Context()
	tt.ev.Emit(obs.Event{Type: obs.EvSpill, Task: fmt.Sprintf("m%d", task),
		Attempt: attempt, Span: sctx.Span, Trace: sctx.Trace,
		Detail: fmt.Sprintf("tracker %d: %d partitions, %d bytes", tt.idx, nParts, spilled)})
	return ph, nil
}

// mapOutputLoc is one completed map's shuffle address.
type mapOutputLoc struct {
	mapID     int
	trackerID int
	addr      string
}

// reducePhases is the wall-time breakdown of one reduce task — the live
// counterpart of the paper's Figure 1 per-reducer measurement. merge is
// background merge-pass CPU overlapped with copy; it runs inside copy's
// wall time and is reported separately, never summed into it.
type reducePhases struct {
	copy   time.Duration
	sort   time.Duration
	reduce time.Duration
	merge  time.Duration
}

// runReduceTask is the copy/sort/reduce lifecycle: poll the jobtracker for
// completed map locations, fetch partitions over HTTP with a pool of
// parallel copiers (mapred.reduce.parallel.copies), merge by key, and run
// the user reduce function into a part built where it is reduced. The
// returned phases are the task's wall times per stage, reported to the
// jobtracker with the part's size.
//
// The shuffle is pipelined: fetched segments are sorted runs, copiers
// validate each one and hand it straight to a shuffle.Merger, whose
// background passes fold runs (applying the job's combiner) while more
// fetches are in flight — the copy/merge overlap the paper says Hadoop's
// copy-dominated shuffle is missing. The final k-way pass feeds the reduce
// function key by key, so there is no whole-key-space sort and no list of
// groups; the sort phase ends when its first key reaches the reducer.
//
// A failed fetch, or one that yields a malformed run, leaves no partial
// state behind: the failure is reported to the jobtracker (fetchFailed),
// the map is re-executed elsewhere, and the next mapLocations poll
// redirects this reducer to the new copy — corruption must not surface
// mid-merge. Two scheduling rules keep the copy loop honest:
//
//   - a mapID may be advertised more than once in a single mapLocations
//     response (an old and a re-executed copy, both completed); jobs are
//     deduped per poll, and the hand-off to the merger is guarded on the
//     fetched set under the merge lock, so one map's values can never be
//     merged twice;
//   - when a poll makes no progress — no new locations, or every fetch
//     failed — the reducer backs off for a heartbeat instead of hot-polling
//     the jobtracker in a tight RPC loop while maps are still running.
func (tt *taskTracker) runReduceTask(task, attempt int, pctx trace.Context) (out *mapred.PartBuilder, ph reducePhases, err error) {
	defer recoverTask(&err)
	span := tt.tr.StartChild(pctx, fmt.Sprintf("r%d", task), trace.KindTask)
	span.Annotate("attempt", fmt.Sprint(attempt))
	defer span.End()

	var combine shuffle.Combiner
	if tt.combine != nil {
		combine = shuffle.Combiner(tt.combine)
	}
	// OnPass fires from each background pass's own goroutine, and passes
	// can overlap — the pass number must be atomic.
	var passNo int64
	merger := shuffle.NewMerger(shuffle.Config{
		Expected: len(tt.splits),
		Factor:   mergeFactor,
		Combine:  combine,
		Pool:     tt.pool,
		OnPass: func(pi shuffle.PassInfo) {
			tt.met.Timer("task.reduce.merge").ObserveDuration(pi.Duration)
			tt.met.Counter("shuffle.merge_passes").Inc()
			n := atomic.AddInt64(&passNo, 1)
			tt.tr.Record(span.Context(), fmt.Sprintf("merge.pass%d", n), trace.KindMerge,
				pi.Start, pi.Start.Add(pi.Duration),
				trace.Annotation{Key: "runs", Value: fmt.Sprint(pi.Runs)},
				trace.Annotation{Key: "bytes_in", Value: fmt.Sprint(pi.BytesIn)},
				trace.Annotation{Key: "bytes_out", Value: fmt.Sprint(pi.BytesOut)})
		},
	})

	fetched := make(map[int]bool, len(tt.splits))
	var mu sync.Mutex // guards fetched and a poll's tallies; serializes merger handoff
	copierSem := make(chan struct{}, copierThreads)

	copySpan := span.Child("reduce.copy", trace.KindPhase)
	defer copySpan.End()
	copyStart := time.Now()
	for len(fetched) < len(tt.splits) {
		if tt.isAborting() {
			return nil, ph, fmt.Errorf("job aborted during copy")
		}
		jobs, err := tt.pollMapLocations(fetched)
		if err != nil {
			return nil, ph, err
		}
		var (
			wg       sync.WaitGroup
			progress int
			failed   []mapOutputLoc
		)
		for _, j := range jobs {
			copierSem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-copierSem }()
				data, err := tt.fetchRun(j, task, copySpan.Context())
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed = append(failed, j)
					return
				}
				progress++
				if fetched[j.mapID] {
					// A re-execution raced the original copy; this
					// duplicate must not reach the merger.
					tt.pool.Put(data)
					return
				}
				fetched[j.mapID] = true
				merger.Add(j.mapID, data)
			}()
		}
		wg.Wait()
		if err := tt.reportFetchFailures(task, failed); err != nil {
			return nil, ph, err
		}
		if len(fetched) < len(tt.splits) && progress == 0 {
			time.Sleep(tt.cfg.Heartbeat)
		}
	}
	ph.copy = time.Since(copyStart)
	copySpan.End()
	tt.met.Timer("task.reduce.copy").ObserveDuration(ph.copy)

	// Sort phase = the final k-way merge pass up to its first key group; from
	// there the pass feeds the reduce function directly, as Hadoop 0.20's final
	// merge feeds the reduce loop, so the rest of it is reduce time. Between
	// keys the loop polls the job's context without a lock.
	sortSpan := span.Child("reduce.sort", trace.KindPhase)
	defer sortSpan.End()
	sortStart := time.Now()
	var reduceSpan *trace.Span
	var reduceStart time.Time
	defer func() { reduceSpan.End() }()
	sorted := func() {
		if reduceStart.IsZero() {
			ph.sort = time.Since(sortStart)
			sortSpan.End()
			tt.met.Timer("task.reduce.sort").ObserveDuration(ph.sort)
			reduceSpan, reduceStart = span.Child("reduce.reduce", trace.KindPhase), time.Now()
		}
	}
	out = mapred.NewPartBuilder(func() int { return merger.Stats().FinalBytes })
	emit, done := mapred.Emit(out.Emit), tt.ctx.Done()
	err = merger.Merge(func(kl kv.KeyList) error {
		sorted()
		select {
		case <-done:
			return tt.ctx.Err()
		default:
			return tt.job.Reducer.Reduce(kl.Key, kl.Values, emit)
		}
	})
	ph.merge = merger.Stats().Time
	if err != nil {
		span.Annotate("error", err.Error())
		return nil, ph, err
	}
	sorted() // an empty partition's merge never reaches the reducer
	ph.reduce = time.Since(reduceStart)
	reduceSpan.End()
	tt.met.Timer("task.reduce.reduce").ObserveDuration(ph.reduce)
	return out, ph, nil
}

// pollMapLocations asks the jobtracker for completed map locations and
// returns the ones not yet fetched, deduped within the response (an old
// and a re-executed copy of one map may both be advertised).
func (tt *taskTracker) pollMapLocations(fetched map[int]bool) ([]mapOutputLoc, error) {
	locs, err := tt.rpc.Call("mapLocations")
	if err != nil {
		return nil, err
	}
	count, n, err := kv.ReadVLong(locs)
	if err != nil {
		return nil, err
	}
	locs = locs[n:]
	var jobs []mapOutputLoc
	queued := make(map[int]bool, int(count))
	for i := int64(0); i < count; i++ {
		mapID64, n, err := kv.ReadVLong(locs)
		if err != nil {
			return nil, err
		}
		locs = locs[n:]
		trackerID64, n, err := kv.ReadVLong(locs)
		if err != nil {
			return nil, err
		}
		locs = locs[n:]
		addr, n, err := kv.ReadBytes(locs)
		if err != nil {
			return nil, err
		}
		locs = locs[n:]
		if mapID := int(mapID64); !fetched[mapID] && !queued[mapID] {
			queued[mapID] = true
			jobs = append(jobs, mapOutputLoc{mapID: mapID, trackerID: int(trackerID64), addr: string(addr)})
		}
	}
	return jobs, nil
}

// reportFetchFailures tells the jobtracker about failed fetches so the
// affected maps are re-executed elsewhere.
func (tt *taskTracker) reportFetchFailures(task int, failed []mapOutputLoc) error {
	for _, j := range failed {
		if _, err := tt.rpc.Call("fetchFailed",
			kv.AppendVLong(nil, int64(task)),
			kv.AppendVLong(nil, int64(j.mapID)),
			kv.AppendVLong(nil, int64(j.trackerID))); err != nil {
			return err
		}
	}
	return nil
}

// fetchRun retrieves one map output partition and validates it is a
// well-formed sorted run before handing it to the caller. The returned
// buffer may come from the tracker's pool (the fetch client shares it);
// ownership passes to the caller.
func (tt *taskTracker) fetchRun(j mapOutputLoc, reduce int, pctx trace.Context) ([]byte, error) {
	fs := tt.tr.StartChild(pctx, fmt.Sprintf("fetch m%d", j.mapID), trace.KindFetch)
	defer fs.End()
	fs.Annotate("from", fmt.Sprintf("tracker%d", j.trackerID))
	data, err := tt.fetch.FetchMapOutputContext(tt.ctx, fs.Context(), j.addr,
		jetty.OutputKey{Job: jobName, Map: j.mapID, Reduce: reduce})
	if err != nil {
		fs.Annotate("error", err.Error())
		tt.emitFetchFail(fs, j, reduce, err)
		return nil, err
	}
	fs.Annotate("bytes", fmt.Sprint(len(data)))
	if _, err := shuffle.ValidateRun(data); err != nil {
		fs.Annotate("error", "corrupt output")
		tt.pool.Put(data)
		return nil, fmt.Errorf("corrupt map %d output: %w", j.mapID, err)
	}
	return data, nil
}

// emitFetchFail records a reducer's definitive fetch failure, cross-linked
// to the fetch span that carried the attempts.
func (tt *taskTracker) emitFetchFail(fs *trace.Span, j mapOutputLoc, reduce int, err error) {
	fctx := fs.Context()
	tt.ev.Emit(obs.Event{Type: obs.EvFetchFail, Task: fmt.Sprintf("r%d", reduce),
		Span: fctx.Span, Trace: fctx.Trace,
		Detail: fmt.Sprintf("map %d on tracker %d: %v", j.mapID, j.trackerID, err)})
}

// splitLen is a split's size in bytes when it reports one, else 0.
func splitLen(s mapred.Split) int {
	if l, ok := s.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

func (tt *taskTracker) isAborting() bool {
	if tt.ctx.Err() != nil {
		return true
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.aborting
}
