// Package hadoop is a miniature but real Hadoop 0.20 MapReduce engine
// assembled from this repository's live substrates: a jobtracker serving
// the task protocol over internal/hadooprpc, tasktrackers that poll it
// with heartbeats and run map/reduce tasks in slot-bounded workers, map
// outputs partitioned and served through internal/jetty's shuffle servlet,
// and reducers that fetch, merge and reduce.
//
// It executes the same jobs as the MPI-D path (internal/mapred): both
// consume mapred.Job and mapred.Split, so one workload can run on either
// engine. That enables the live counterpart of the paper's Figure 6 — the
// identical WordCount on the Hadoop-shaped data path (RPC heartbeats +
// HTTP shuffle + per-task scheduling) versus the MPI-D path (pre-spawned
// ranks + buffered/combined/realigned MPI messages) — on one machine, with
// every byte crossing real sockets.
//
// The engine is fault tolerant in the Hadoop mold: failed tasks are
// re-queued and re-executed up to four times (maxTaskAttempts); tasktrackers
// that stop heartbeating are declared lost after Config.TrackerTimeout and
// their work (including already-completed map outputs, which died with
// their shuffle server) is re-executed elsewhere; reducers that cannot
// fetch a map output report the failure and are redirected to the
// replacement execution. Heartbeats carry a sequence number so a retried
// heartbeat RPC replays the cached response instead of double-assigning
// tasks — the responseId mechanism of Hadoop's InterTrackerProtocol.
package hadoop

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// Config sizes the mini-cluster.
type Config struct {
	// NumTrackers is the tasktracker count (default 2).
	NumTrackers int
	// MapSlots and ReduceSlots bound per-tracker task concurrency
	// (defaults 2 and 2).
	MapSlots, ReduceSlots int
	// Heartbeat is the tasktracker poll interval. Hadoop uses 3 s; the
	// default here is 2 ms so tests and live benchmarks are not dominated
	// by idle waiting — scale it up to study scheduling latency.
	Heartbeat time.Duration
	// TrackerTimeout is how long a tracker may go without heartbeating
	// before the jobtracker declares it lost and re-queues its tasks
	// (default max(500 ms, 150 heartbeats)).
	TrackerTimeout time.Duration
	// RPC configures the tasktrackers' jobtracker clients and, via
	// MaxAttempts/Backoff, the shuffle fetch retry budget. The zero value
	// keeps the fail-fast defaults. The clients observe into the job's
	// Telemetry, whatever RPC.Telemetry holds.
	RPC hadooprpc.Options
	// Injector, when set, threads fault injection through the cluster:
	// tracker i is the component "hadoop.tracker<i>" (operation
	// "heartbeat"; a Crash kills it abruptly, shuffle server included),
	// its RPC client uses the hadooprpc injection points, and its shuffle
	// fetches the jetty ones.
	Injector *faults.Injector
	// Telemetry observes the job. Metrics receives RPC call counts/
	// latency/retries/bytes from every tracker's jobtracker client, shuffle
	// fetch latency/bytes/retries from the copy stage, per-task phase
	// timers (task.map.run/spill, task.reduce.copy/sort/reduce),
	// scheduling counters (hadoop.map_launches, hadoop.reexecutions, ...)
	// and — when an Injector is set — injected-fault counts; left nil, the
	// engine creates a fresh registry per job so the jobtracker Report is
	// always populated. Tracer is the jobtracker's span collector: the
	// jobtracker opens a root job span plus a scheduler-side span per task
	// attempt (ended "ok", "failed" or "lost" — which is how attempts that
	// died with their tracker still appear in the trace), tasktrackers
	// record task/phase/fetch spans and ship them on heartbeat and
	// completion RPCs, and the aggregate lands in JobReport.Spans; left
	// nil, a fresh collector (proc "jobtracker") is created per job.
	// Events is the job's flight recorder: the jobtracker emits attempt
	// lifecycle events (scheduled/failed/lost/superseded) and fetch
	// redirects, tasktrackers emit spill and fetch-failure events, and the
	// RPC, jetty and fault layers fold their retry/deadline/fault events
	// into the same ring. Each event carries the trace span id of the work
	// it describes. A nil recorder records nothing.
	obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.NumTrackers <= 0 {
		c.NumTrackers = 2
	}
	if c.MapSlots <= 0 {
		c.MapSlots = 2
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 2
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Millisecond
	}
	if c.TrackerTimeout <= 0 {
		c.TrackerTimeout = 150 * c.Heartbeat
		if c.TrackerTimeout < 500*time.Millisecond {
			c.TrackerTimeout = 500 * time.Millisecond
		}
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = trace.New("jobtracker")
	}
	return c
}

// rpcOptions is the client configuration handed to each tasktracker.
func (c Config) rpcOptions() hadooprpc.Options {
	o := c.RPC
	if o.Injector == nil {
		o.Injector = c.Injector
	}
	o.Telemetry = c.Telemetry
	return o
}

// Scheduling and shuffle constants, at Hadoop's defaults.
const (
	// slowstartFraction gates reduce launches on map progress
	// (mapred.reduce.slowstart).
	slowstartFraction = 0.05
	// copierThreads is the number of parallel shuffle fetchers per reduce
	// task (mapred.reduce.parallel.copies).
	copierThreads = 5
	// mergeFactor is the reduce-side merge fan-in (io.sort.factor): while
	// fetches are still in flight, a background merge pass folds the
	// mergeFactor smallest pending runs into one, overlapping merge CPU
	// with copy wait.
	mergeFactor = 10
	// maxTaskAttempts bounds how many times one task may be attempted
	// before the job aborts (mapred.map.max.attempts). Re-executions forced
	// by tracker loss are not charged against it.
	maxTaskAttempts = 4
)

// Protocol identity for the jobtracker RPC service.
const (
	jtProtocolName    = "org.ict.mpid.JobTrackerProtocol"
	jtProtocolVersion = int64(20)
)

// Heartbeat action types.
const (
	actLaunchMap    = 1
	actLaunchReduce = 2
	actAbort        = 3
	actJobDone      = 4
)

// Task kinds on the wire.
const (
	taskKindMap    = "m"
	taskKindReduce = "r"
)

// RunWithReportContext executes the job over the given splits on a fresh
// mini-cluster — the Hadoop-path analogue of mapred.RunContext — and returns
// the collected result with the jobtracker's per-job report: the live
// Figure-1-style per-reducer copy/sort/reduce breakdown, per-map run/spill
// times, and the job's metrics snapshot (RPC, shuffle, scheduling and fault
// counters). The job succeeds as long as every reduce completes, even if
// individual tasktrackers crashed along the way. The report is returned even
// when the job fails, so a post-mortem can see how far it got; it is nil
// only when the job never started.
//
// Cancelling ctx aborts the job — trackers stop heartbeating, reduce copy
// loops cut their fetch and backoff schedules short (the context threads
// down to the jetty client), and the error returned is the context's. The
// report still reflects whatever completed before the cancel, so a drained
// job leaves a usable post-mortem.
func RunWithReportContext(ctx context.Context, job mapred.Job, splits []mapred.Split, cfg Config) (*mapred.Result, *JobReport, error) {
	if job.Mapper == nil || job.Reducer == nil {
		return nil, nil, errors.New("hadoop: job needs Mapper and Reducer")
	}
	if job.NumReducers <= 0 {
		job.NumReducers = 1
	}
	cfg = cfg.withDefaults()
	// Injected faults count toward the same per-job registry, so a chaos
	// run's report shows re-executions next to the faults that caused them.
	// Fault firings get their own trace lane; closeTrace merges it.
	jt := newJobTracker(job, splits, cfg)
	cfg.Injector.SetTelemetry(obs.Telemetry{Metrics: cfg.Metrics, Tracer: jt.faultTr, Events: cfg.Events})
	addr, err := jt.start()
	if err != nil {
		return nil, nil, err
	}
	defer jt.stop()
	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				jt.abort(ctx.Err())
			case <-stopWatch:
			}
		}()
	}

	var wg sync.WaitGroup
	trackerErrs := make([]error, cfg.NumTrackers)
	for i := 0; i < cfg.NumTrackers; i++ {
		tt, err := newTaskTracker(ctx, i, addr, jt.out, job, splits, cfg)
		if err != nil {
			jt.abort(fmt.Errorf("hadoop: tracker %d: %w", i, err))
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trackerErrs[i] = tt.run()
			tt.close()
		}(i)
	}
	wg.Wait()

	jt.closeTrace()
	report := jt.Report()
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.reducesDone == job.NumReducers {
		// Complete output trumps tracker obituaries: crashed trackers are
		// the fault model working, not a job failure.
		maxExec, reexec := 0, 0
		for _, n := range jt.executions {
			if n > maxExec {
				maxExec = n
			}
			if n > 1 {
				reexec += n - 1
			}
		}
		return &mapred.Result{
			ByReducer:         jt.outputs,
			MapTasks:          len(splits),
			FailedAttempts:    reexec,
			MaxTaskExecutions: maxExec,
		}, report, nil
	}
	if jt.failure != nil {
		return nil, report, jt.failure
	}
	for _, err := range trackerErrs {
		if err != nil {
			return nil, report, err
		}
	}
	return nil, report, fmt.Errorf("hadoop: job ended with %d/%d reduces done", jt.reducesDone, job.NumReducers)
}

// --------------------------------------------------------------------------
// JobTracker

type trackerInfo struct {
	id        int
	jettyAddr string
	lastSeen  time.Time
	lost      bool
	lastSeq   int64  // last heartbeat sequence number answered
	lastResp  []byte // its cached response, replayed on retried heartbeats
}

type jobTracker struct {
	job    mapred.Job
	splits []mapred.Split
	cfg    Config
	// faultTr is a dedicated lane for injected-fault instants; the shared
	// injector fires from every process, so attributing its spans to one
	// tracker would lie. closeTrace merges it into cfg.Tracer.
	faultTr *trace.Tracer

	srv     *hadooprpc.Server
	done    chan struct{}
	sweeper sync.WaitGroup

	mu             sync.Mutex
	jobSpan        *trace.Span
	attemptSpans   map[string]*trace.Span // open scheduler-side attempt spans
	seenSpans      map[uint64]bool        // shipped span ids, for replay dedup
	trackers       []*trackerInfo
	pendingMaps    []int
	runningMaps    map[int]int // map task -> tracker currently executing it
	completed      map[int]bool
	mapsDone       int
	mapLocation    map[int]int // completed map -> tracker serving its output
	pendingReduces []int
	runningReduces map[int]int
	doneReduces    map[int]bool
	reducesDone    int
	out            *outputCommitter // staged reduce parts, shared with the trackers
	outputs        [][]kv.Pair      // promoted parts, Result.ByReducer
	attempts       map[string]int   // task key -> failure-charged attempts
	executions     map[string]int   // task key -> times launched
	mapTimings     map[int]MapTiming
	reduceTimings  map[int]ReduceTiming
	failure        error
}

func taskKey(kind string, id int) string { return fmt.Sprintf("%s%d", kind, id) }

func newJobTracker(job mapred.Job, splits []mapred.Split, cfg Config) *jobTracker {
	jt := &jobTracker{
		job:            job,
		splits:         splits,
		cfg:            cfg,
		faultTr:        trace.New("faults"),
		attemptSpans:   make(map[string]*trace.Span),
		seenSpans:      make(map[uint64]bool),
		runningMaps:    make(map[int]int),
		completed:      make(map[int]bool),
		mapLocation:    make(map[int]int),
		runningReduces: make(map[int]int),
		doneReduces:    make(map[int]bool),
		out:            newOutputCommitter(job.NumReducers),
		outputs:        make([][]kv.Pair, job.NumReducers),
		attempts:       make(map[string]int),
		executions:     make(map[string]int),
		mapTimings:     make(map[int]MapTiming),
		reduceTimings:  make(map[int]ReduceTiming),
	}
	for i := range splits {
		jt.pendingMaps = append(jt.pendingMaps, i)
	}
	for r := 0; r < job.NumReducers; r++ {
		jt.pendingReduces = append(jt.pendingReduces, r)
	}
	return jt
}

func (jt *jobTracker) start() (string, error) {
	jt.srv = hadooprpc.NewServer()
	jt.srv.Register(&hadooprpc.Protocol{
		Name:    jtProtocolName,
		Version: jtProtocolVersion,
		Methods: map[string]hadooprpc.Handler{
			"register":        jt.handleRegister,
			"heartbeat":       jt.handleHeartbeat,
			"mapCompleted":    jt.handleMapCompleted,
			"reduceCompleted": jt.handleReduceCompleted,
			"taskFailed":      jt.handleTaskFailed,
			"fetchFailed":     jt.handleFetchFailed,
			"mapLocations":    jt.handleMapLocations,
		},
	})
	addr, err := jt.srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	jt.mu.Lock()
	jt.jobSpan = jt.cfg.Tracer.StartRoot("job", trace.KindJob)
	jt.jobSpan.Annotate("maps", fmt.Sprint(len(jt.splits)))
	jt.jobSpan.Annotate("reduces", fmt.Sprint(jt.job.NumReducers))
	jt.mu.Unlock()
	jt.done = make(chan struct{})
	jt.sweeper.Add(1)
	go jt.sweepLoop()
	return addr, nil
}

func (jt *jobTracker) stop() {
	close(jt.done)
	jt.sweeper.Wait()
	jt.srv.Close()
}

func (jt *jobTracker) abort(err error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.abortLocked(err)
}

func (jt *jobTracker) abortLocked(err error) {
	if jt.failure == nil {
		jt.failure = err
	}
}

// sweepLoop is the liveness detector: trackers silent past TrackerTimeout
// are declared lost and their work re-queued.
func (jt *jobTracker) sweepLoop() {
	defer jt.sweeper.Done()
	ticker := time.NewTicker(max(jt.cfg.TrackerTimeout/4, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-jt.done:
			return
		case now := <-ticker.C:
			jt.sweep(now)
		}
	}
}

// sweep declares the trackers silent past TrackerTimeout lost and fails the
// job once none is left alive. A finished or failed job is left alone: its
// trackers are shutting down, which is not death.
func (jt *jobTracker) sweep(now time.Time) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.failure != nil || jt.reducesDone == jt.job.NumReducers || len(jt.trackers) == 0 {
		return
	}
	alive := 0
	for _, tr := range jt.trackers {
		if !tr.lost && now.Sub(tr.lastSeen) > jt.cfg.TrackerTimeout {
			jt.markLostLocked(tr)
		}
		if !tr.lost {
			alive++
		}
	}
	if alive == 0 {
		jt.abortLocked(errors.New("hadoop: all tasktrackers lost"))
	}
}

// closeTrace finishes the job's trace: scheduler attempt spans still open
// when the cluster wound down are closed as "abandoned", the fault lane is
// merged in, and the root job span ends. Called once after all trackers
// have exited, before the report is taken.
func (jt *jobTracker) closeTrace() {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for key, s := range jt.attemptSpans {
		s.Annotate("status", "abandoned")
		s.End()
		delete(jt.attemptSpans, key)
	}
	status := "ok"
	if jt.failure != nil {
		status = "failed"
	}
	jt.jobSpan.Annotate("status", status)
	jt.jobSpan.End()
	jt.cfg.Tracer.Add(jt.faultTr.Drain()...)
}

// startAttemptLocked opens the scheduler-side span for one task attempt.
// These spans live on the jobtracker, not the tracker running the task, so
// an attempt that dies with its tracker — which can never ship its own
// spans — still appears in the trace, ended "lost". The span id rides the
// launch action so the tracker's task span can parent under it.
func (jt *jobTracker) startAttemptLocked(kind string, task, trackerID int) *trace.Span {
	key := taskKey(kind, task)
	if old := jt.attemptSpans[key]; old != nil {
		old.Annotate("status", "superseded")
		old.End()
		octx := old.Context()
		jt.cfg.Events.Emit(obs.Event{Type: obs.EvAttemptSuperseded, Task: key,
			Span: octx.Span, Trace: octx.Trace})
	}
	s := jt.cfg.Tracer.StartChild(jt.jobSpan.Context(), key, trace.KindAttempt)
	s.Annotate("attempt", fmt.Sprint(jt.executions[key]))
	s.Annotate("tracker", fmt.Sprint(trackerID))
	jt.attemptSpans[key] = s
	sctx := s.Context()
	jt.cfg.Events.Emit(obs.Event{Type: obs.EvAttemptScheduled, Task: key,
		Attempt: jt.executions[key], Span: sctx.Span, Trace: sctx.Trace,
		Detail: fmt.Sprintf("tracker %d", trackerID)})
	return s
}

// endAttemptLocked closes the open attempt span for a task, if any, with a
// terminal status ("ok", "failed", "lost").
func (jt *jobTracker) endAttemptLocked(kind string, task int, status string) {
	key := taskKey(kind, task)
	if s := jt.attemptSpans[key]; s != nil {
		s.Annotate("status", status)
		s.End()
		delete(jt.attemptSpans, key)
		// Healthy completions are the common case and already visible in the
		// trace; the flight recorder keeps the anomalies.
		var typ string
		switch status {
		case "failed":
			typ = obs.EvAttemptFailed
		case "lost":
			typ = obs.EvAttemptLost
		}
		if typ != "" {
			sctx := s.Context()
			jt.cfg.Events.Emit(obs.Event{Type: typ, Task: key,
				Attempt: jt.executions[key], Span: sctx.Span, Trace: sctx.Trace})
		}
	}
}

// ingestSpansLocked merges a span batch a tasktracker shipped on an RPC.
// Batches can be redelivered (the RPC layer retries whole frames), so
// spans already seen are dropped by id.
func (jt *jobTracker) ingestSpansLocked(blob []byte) {
	if len(blob) == 0 {
		return
	}
	spans, err := trace.DecodeSpans(blob)
	if err != nil {
		jt.cfg.Metrics.Counter("trace.corrupt_batches").Inc()
		return
	}
	for _, s := range spans {
		if jt.seenSpans[s.ID] {
			continue
		}
		jt.seenSpans[s.ID] = true
		jt.cfg.Tracer.Add(s)
	}
}

// markLostLocked declares a tracker dead: its running tasks go back to the
// queues, and its completed map outputs — which lived in its now-dead
// shuffle server — are marked incomplete so the maps re-execute elsewhere.
// These re-executions are the tracker's fault, not the tasks', so no
// attempt budget is charged.
func (jt *jobTracker) markLostLocked(tr *trackerInfo) {
	tr.lost = true
	jt.cfg.Metrics.Counter("hadoop.trackers_lost").Inc()
	for task, owner := range jt.runningMaps {
		if owner == tr.id {
			delete(jt.runningMaps, task)
			jt.pendingMaps = append(jt.pendingMaps, task)
			jt.endAttemptLocked(taskKindMap, task, "lost")
		}
	}
	for task, done := range jt.completed {
		if done && jt.mapLocation[task] == tr.id {
			jt.completed[task] = false
			jt.mapsDone--
			delete(jt.mapLocation, task)
			jt.pendingMaps = append(jt.pendingMaps, task)
		}
	}
	for task, owner := range jt.runningReduces {
		if owner == tr.id {
			delete(jt.runningReduces, task)
			jt.pendingReduces = append(jt.pendingReduces, task)
			jt.endAttemptLocked(taskKindReduce, task, "lost")
		}
	}
}

// handleRegister: [jettyAddr] -> [trackerID, jobTraceContext]. The trailing
// trace context (framed bytes) parents every tracker-side span under the
// job's root span; clients of servers that don't send it trace standalone.
func (jt *jobTracker) handleRegister(params [][]byte) ([]byte, error) {
	if len(params) < 1 {
		return nil, errors.New("register wants 1 parameter")
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	id := len(jt.trackers)
	jt.trackers = append(jt.trackers, &trackerInfo{
		id:        id,
		jettyAddr: string(params[0]),
		lastSeen:  time.Now(),
	})
	resp := kv.AppendVLong(nil, int64(id))
	resp = kv.AppendBytes(resp, trace.EncodeContext(jt.jobSpan.Context()))
	return resp, nil
}

// handleHeartbeat: [trackerID, seq, freeMapSlots, freeReduceSlots, spans?]
// -> action list. At most one map and one reduce launch per heartbeat, the
// 0.20 behaviour; launch actions are [act, task, attempt, spanID] so the
// tracker can label and parent its task span. A repeated seq replays the
// cached response, so a transport-level retry of a lost response cannot
// double-assign tasks. The optional fifth parameter is an encoded span
// batch the tracker drained since its last report.
func (jt *jobTracker) handleHeartbeat(params [][]byte) ([]byte, error) {
	if len(params) < 4 {
		return nil, errors.New("heartbeat wants 4 parameters")
	}
	v, err := readVLongs(params, 4)
	if err != nil {
		return nil, err
	}
	trackerID, seq, freeMap, freeReduce := v[0], v[1], v[2], v[3]

	jt.mu.Lock()
	defer jt.mu.Unlock()
	if trackerID < 0 || int(trackerID) >= len(jt.trackers) {
		return nil, fmt.Errorf("unknown tracker %d", trackerID)
	}
	tr := jt.trackers[trackerID]
	tr.lastSeen = time.Now()
	if seq == tr.lastSeq && tr.lastResp != nil {
		// Replayed heartbeat: its span batch was ingested on first delivery.
		return tr.lastResp, nil
	}
	if len(params) > 4 {
		jt.ingestSpansLocked(params[4])
	}

	var resp []byte
	switch {
	case jt.failure != nil:
		resp = kv.AppendVLong(resp, actAbort)
	case tr.lost:
		// Its tasks were re-queued on loss; completions from it are being
		// ignored. Working further is pointless.
		resp = kv.AppendVLong(resp, actAbort)
	case jt.reducesDone == jt.job.NumReducers:
		resp = kv.AppendVLong(resp, actJobDone)
	default:
		if freeMap > 0 && len(jt.pendingMaps) > 0 {
			task := jt.pendingMaps[0]
			jt.pendingMaps = jt.pendingMaps[1:]
			jt.runningMaps[task] = tr.id
			jt.executions[taskKey(taskKindMap, task)]++
			jt.cfg.Metrics.Counter("hadoop.map_launches").Inc()
			if jt.executions[taskKey(taskKindMap, task)] > 1 {
				jt.cfg.Metrics.Counter("hadoop.reexecutions").Inc()
			}
			span := jt.startAttemptLocked(taskKindMap, task, tr.id)
			resp = kv.AppendVLong(resp, actLaunchMap)
			resp = kv.AppendVLong(resp, int64(task))
			resp = kv.AppendVLong(resp, int64(jt.executions[taskKey(taskKindMap, task)]))
			resp = kv.AppendVLong(resp, int64(span.Context().Span))
		}
		slowstartMet := float64(jt.mapsDone) >= slowstartFraction*float64(len(jt.splits))
		if freeReduce > 0 && slowstartMet && len(jt.pendingReduces) > 0 {
			task := jt.pendingReduces[0]
			jt.pendingReduces = jt.pendingReduces[1:]
			jt.runningReduces[task] = tr.id
			jt.executions[taskKey(taskKindReduce, task)]++
			jt.cfg.Metrics.Counter("hadoop.reduce_launches").Inc()
			if jt.executions[taskKey(taskKindReduce, task)] > 1 {
				jt.cfg.Metrics.Counter("hadoop.reexecutions").Inc()
			}
			span := jt.startAttemptLocked(taskKindReduce, task, tr.id)
			resp = kv.AppendVLong(resp, actLaunchReduce)
			resp = kv.AppendVLong(resp, int64(task))
			resp = kv.AppendVLong(resp, int64(jt.executions[taskKey(taskKindReduce, task)]))
			resp = kv.AppendVLong(resp, int64(span.Context().Span))
		}
	}
	if resp == nil {
		resp = []byte{} // cacheable empty response
	}
	tr.lastSeq, tr.lastResp = seq, resp
	return resp, nil
}

// handleMapCompleted: [trackerID, mapID, runNs, spillNs, spans?].
// Idempotent; completions from trackers already declared lost are ignored
// (their shuffle output is unreachable and the map was re-queued). The
// runNs/spillNs parameters carry the task's measured phase wall times for
// the job report (the latest accepted completion wins); the optional fifth
// is the tracker's drained span batch, which is ingested even from lost
// trackers — the work happened, the trace should show it.
func (jt *jobTracker) handleMapCompleted(params [][]byte) ([]byte, error) {
	if len(params) < 4 {
		return nil, errors.New("mapCompleted wants 4 parameters")
	}
	v, err := readVLongs(params, 4)
	if err != nil {
		return nil, err
	}
	trackerID, mapID, runNs, spillNs := v[0], v[1], v[2], v[3]
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if trackerID < 0 || int(trackerID) >= len(jt.trackers) {
		return nil, fmt.Errorf("unknown tracker %d", trackerID)
	}
	if len(params) > 4 {
		jt.ingestSpansLocked(params[4])
	}
	if jt.trackers[trackerID].lost {
		return nil, nil
	}
	task := int(mapID)
	if owner, running := jt.runningMaps[task]; running && owner == int(trackerID) {
		delete(jt.runningMaps, task)
	}
	jt.endAttemptLocked(taskKindMap, task, "ok")
	jt.mapLocation[task] = int(trackerID)
	jt.mapTimings[task] = MapTiming{
		Task:    task,
		Tracker: int(trackerID),
		Run:     time.Duration(runNs),
		Spill:   time.Duration(spillNs),
	}
	if !jt.completed[task] {
		jt.completed[task] = true
		jt.mapsDone++
	}
	return nil, nil
}

// handleReduceCompleted: [trackerID, reduceID, attempt, pairs, bytes,
// copyNs, sortNs, reduceNs, mergeNs, spans?]. The attempt staged its part
// in the job's output committer; the first completion accepted promotes it,
// and later ones — retried RPCs, attempts re-executed after a tracker was
// wrongly presumed lost, attempts from a lost tracker — drop their part. The
// Ns parameters carry the reduce task's measured copy/sort/reduce phase
// wall times plus the background merge CPU time overlapped with copy; the
// optional tenth is the tracker's drained span batch.
func (jt *jobTracker) handleReduceCompleted(params [][]byte) ([]byte, error) {
	if len(params) < 9 {
		return nil, errors.New("reduceCompleted wants 9 parameters")
	}
	v, err := readVLongs(params, 9)
	if err != nil {
		return nil, err
	}
	trackerID, task, attempt := v[0], int(v[1]), int(v[2])
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if trackerID < 0 || int(trackerID) >= len(jt.trackers) {
		return nil, fmt.Errorf("unknown tracker %d", trackerID)
	}
	if task < 0 || task >= len(jt.outputs) {
		return nil, fmt.Errorf("reduce id %d out of range", task)
	}
	if len(params) > 9 {
		jt.ingestSpansLocked(params[9])
	}
	if jt.trackers[trackerID].lost || jt.doneReduces[task] {
		if jt.out.discard(task, attempt) {
			jt.cfg.Metrics.Counter("hadoop.outputs_dropped").Inc()
		}
		return nil, nil
	}
	part, dropped, err := jt.out.commit(task, attempt, int(v[3]), int(v[4]))
	if err != nil {
		jt.abortLocked(err)
		return nil, err
	}
	jt.cfg.Metrics.Counter("hadoop.outputs_dropped").Add(int64(dropped))
	if owner, running := jt.runningReduces[task]; running && owner == int(trackerID) {
		delete(jt.runningReduces, task)
	}
	jt.endAttemptLocked(taskKindReduce, task, "ok")
	jt.outputs[task] = part
	jt.reduceTimings[task] = ReduceTiming{
		Task:    task,
		Tracker: int(trackerID),
		Copy:    time.Duration(v[5]),
		Sort:    time.Duration(v[6]),
		Reduce:  time.Duration(v[7]),
		Merge:   time.Duration(v[8]),
	}
	jt.doneReduces[task] = true
	jt.reducesDone++
	return nil, nil
}

// handleTaskFailed: [trackerID, kind, taskID, message, spans?]. The task
// is re-queued and charged one attempt; past maxTaskAttempts the job
// aborts with the task's error.
func (jt *jobTracker) handleTaskFailed(params [][]byte) ([]byte, error) {
	if len(params) < 4 {
		return nil, errors.New("taskFailed wants 4 parameters")
	}
	trackerID, _, err := kv.ReadVLong(params[0])
	if err != nil {
		return nil, err
	}
	kind := string(params[1])
	taskID, _, err := kv.ReadVLong(params[2])
	if err != nil {
		return nil, err
	}
	msg := string(params[3])
	if kind != taskKindMap && kind != taskKindReduce {
		return nil, fmt.Errorf("unknown task kind %q", kind)
	}

	jt.mu.Lock()
	defer jt.mu.Unlock()
	if trackerID < 0 || int(trackerID) >= len(jt.trackers) {
		return nil, fmt.Errorf("unknown tracker %d", trackerID)
	}
	if len(params) > 4 {
		jt.ingestSpansLocked(params[4])
	}
	if jt.trackers[trackerID].lost {
		return nil, nil // already re-queued by markLostLocked
	}
	task := int(taskID)
	jt.endAttemptLocked(kind, task, "failed")
	key := taskKey(kind, task)
	jt.attempts[key]++
	jt.cfg.Metrics.Counter("hadoop.task_failures").Inc()
	if jt.attempts[key] >= maxTaskAttempts {
		jt.abortLocked(fmt.Errorf("hadoop: task %s failed %d times, giving up: %s",
			key, jt.attempts[key], msg))
		return nil, nil
	}
	if kind == taskKindMap {
		if owner, running := jt.runningMaps[task]; running && owner == int(trackerID) {
			delete(jt.runningMaps, task)
			jt.pendingMaps = append(jt.pendingMaps, task)
		}
	} else {
		if owner, running := jt.runningReduces[task]; running && owner == int(trackerID) {
			delete(jt.runningReduces, task)
			jt.pendingReduces = append(jt.pendingReduces, task)
		}
	}
	return nil, nil
}

// handleFetchFailed: [reduceID, mapID, trackerID] — a reducer could not
// fetch a completed map's output from the tracker serving it. The map is
// marked incomplete and re-queued (charging one attempt), and the reducer
// is redirected to the re-execution through its mapLocations polling.
func (jt *jobTracker) handleFetchFailed(params [][]byte) ([]byte, error) {
	if len(params) != 3 {
		return nil, errors.New("fetchFailed wants 3 parameters")
	}
	v, err := readVLongs(params, 3) // reduceID (informational), mapID, trackerID
	if err != nil {
		return nil, err
	}
	mapID, trackerID := v[1], v[2]
	jt.mu.Lock()
	defer jt.mu.Unlock()
	task := int(mapID)
	// Only the first report for this (map, location) acts; later ones find
	// the map already un-completed or moved.
	if !jt.completed[task] || jt.mapLocation[task] != int(trackerID) {
		return nil, nil
	}
	key := taskKey(taskKindMap, task)
	jt.attempts[key]++
	jt.cfg.Metrics.Counter("hadoop.fetch_failures").Inc()
	if jt.attempts[key] >= maxTaskAttempts {
		jt.abortLocked(fmt.Errorf("hadoop: map %d unfetchable after %d attempts", task, jt.attempts[key]))
		return nil, nil
	}
	jt.completed[task] = false
	jt.mapsDone--
	delete(jt.mapLocation, task)
	if _, running := jt.runningMaps[task]; !running {
		jt.pendingMaps = append(jt.pendingMaps, task)
	}
	jt.cfg.Events.Emit(obs.Event{Type: obs.EvFetchRedirect, Task: key,
		Detail: fmt.Sprintf("map output on tracker %d unfetchable; re-queued", trackerID)})
	return nil, nil
}

// readVLongs decodes a handler's first n (at most 9) parameters as VLongs.
func readVLongs(params [][]byte, n int) (v [9]int64, err error) {
	for i := 0; i < n; i++ {
		if v[i], _, err = kv.ReadVLong(params[i]); err != nil {
			return v, err
		}
	}
	return v, nil
}

// handleMapLocations: [] -> [count, then per completed map: mapID,
// trackerID, jettyAddr]. Reducers poll this until every map is present —
// the event stream a real reduce task's copier follows. The trackerID lets
// a reducer report fetch failures against the right server.
func (jt *jobTracker) handleMapLocations(params [][]byte) ([]byte, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	done := make([]int, 0, len(jt.completed))
	for task, ok := range jt.completed {
		if ok {
			done = append(done, task)
		}
	}
	sort.Ints(done)
	resp := kv.AppendVLong(nil, int64(len(done)))
	for _, task := range done {
		loc := jt.mapLocation[task]
		resp = kv.AppendVLong(resp, int64(task))
		resp = kv.AppendVLong(resp, int64(loc))
		resp = kv.AppendBytes(resp, []byte(jt.trackers[loc].jettyAddr))
	}
	return resp, nil
}
