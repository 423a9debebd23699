// Package serve is the long-lived multi-tenant job service: it puts the
// MPI-D runtime (engine.MPID) behind a daemon that accepts concurrent
// submissions, queues them fairly across tenants, and survives saturation
// and failing jobs — promoting the runtime from "run one job, exit" to the
// persistent-deployment shape the DataMPI follow-up work evaluates with
// mixed workloads: one resident service on the MPI runtime.
//
// The service's contract has four parts:
//
//   - Admission control and backpressure: a bounded number of concurrent
//     job slots plus a bounded waiting queue. A submission past both is
//     rejected immediately with a typed *SaturatedError carrying the queue
//     depth and a retry-after hint derived from observed job latency, so
//     clients degrade gracefully instead of timing out.
//   - Fair scheduling: submissions are FIFO within a tenant and round-robin
//     across tenants, so one chatty tenant cannot starve the others however
//     deep its backlog gets.
//   - Per-job isolation: each job runs with its own child metrics registry
//     (updates propagate to the service-wide parent, so per-job counters
//     sum exactly to the fleet totals) and its own tracer (spans fold into
//     a capped service-wide collector after the job) — two concurrent jobs
//     never bleed counters or spans into each other.
//   - Bounded retention: a finished job keeps its result, report and output
//     digest — never its input — and finished records are evicted oldest
//     first once together they hold more than a fixed byte budget. An
//     evicted id answers ErrExpired, a never-issued one ErrUnknownJob.
//
// A job's ranks are goroutines of the service process on an in-process
// world, so no rank can be lost without the service: there is no liveness
// detector here. Drain implements graceful shutdown (cmd/mpid-serve wires
// it to SIGTERM): stop admitting, let queued and running jobs finish, and
// past the drain budget cancel the stragglers through their job contexts,
// which MPI-D turns into a world abort that unblocks every rank.
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// ErrSaturated is the admission-control sentinel: errors.Is(err,
// ErrSaturated) is true for every *SaturatedError, however it traveled.
var ErrSaturated = errors.New("serve: saturated")

// ErrDraining rejects submissions arriving after shutdown began.
var ErrDraining = errors.New("serve: draining, not admitting jobs")

// ErrUnknownJob reports a job id the service never issued.
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrExpired reports a job that ran here but whose record has since been
// evicted from retention: its outcome is no longer available.
var ErrExpired = errors.New("serve: job record expired")

// traceCap bounds the service-wide span collector; a long-lived daemon
// would otherwise grow without limit.
const traceCap = 16384

// retainBytes is the retention budget: what finished jobs' results and
// reports may hold together before the oldest are evicted. The record of a
// 512 KiB WordCount is a few tens of KiB, of a 10 MB TeraSort about 15 MB.
const retainBytes = 64 << 20

// SaturatedError is the typed admission rejection: the service's slots and
// queue are full. It carries enough for a client to back off intelligently
// rather than retry-hammer.
type SaturatedError struct {
	// Queued is the number of jobs waiting or running at rejection time.
	Queued int
	// Depth is the configured capacity (slots + queue) the backlog hit.
	Depth int
	// RetryAfter estimates when a slot will free: the service's smoothed
	// job latency scaled by how many jobs are ahead of a resubmission.
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: saturated: %d/%d jobs backlogged, retry after %v",
		e.Queued, e.Depth, e.RetryAfter.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrSaturated) match.
func (e *SaturatedError) Is(target error) bool { return target == ErrSaturated }

// Config sizes the service.
type Config struct {
	// Slots is the number of jobs allowed to run concurrently (default 4).
	// Each job is its own MPI-D world, so this bounds
	// process-wide goroutine and socket load.
	Slots int
	// QueueDepth bounds jobs waiting beyond the running ones (default 64).
	// A submission finding Slots running and QueueDepth queued is rejected
	// with *SaturatedError.
	QueueDepth int
	// Cluster sizes each job's world: only NumTrackers is read, as the
	// mapper rank count (default 2). It is a hadoop.Config because the
	// repository benchmark sets it so; ROADMAP item 4(l) turns it into a
	// plain mapper count.
	Cluster hadoop.Config
	// EventCap sizes the service-wide flight recorder's ring (default
	// obs.DefaultEventCap). Each job records into a child of it stamped
	// with the job's id and tenant, so the service ring interleaves every
	// job's admission, completion and drain events.
	EventCap int
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// JobState is a job's position in the service lifecycle.
type JobState int

// Job lifecycle states.
const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
)

// String names the state for stats output.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state%d", int(s))
}

// Job is one submission's handle. Result and Err are written exactly once,
// before Done() closes; read them only after <-Done().
type Job struct {
	ID     int64
	Tenant string
	Name   string

	// The submission itself; released the moment the engine returns, so a
	// retained record never pins its input.
	job    mapred.Job
	splits []mapred.Split

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// Written once by runJob before done closes.
	Result *mapred.Result
	// Report is always nil: MPI-D has no jobtracker to report. It stays
	// because the repository benchmark reads it; ROADMAP item 4(l) removes
	// it.
	Report *hadoop.JobReport
	Err    error
	digest []byte // OutputDigest(Result), hashed once
	size   int64  // bytes this record charges against the retention budget

	// Guarded by the service mutex.
	state    JobState
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// Done closes when the job has finished (successfully or not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires, then returns the
// job's error (nil on success, ctx.Err() on a wait timeout).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Latency is queue-to-finish wall time; zero until the job finishes.
func (j *Job) Latency() time.Duration {
	select {
	case <-j.done:
		return j.finished.Sub(j.enqueued)
	default:
		return 0
	}
}

// OutputDigest is a deterministic fingerprint of a completed job's output:
// SHA-256 over every reducer's framed pairs in reducer order. Two runs of
// the same deterministic job must produce equal digests — the byte-identical
// property the chaos tests assert over the wire.
func OutputDigest(res *mapred.Result) []byte {
	h := sha256.New()
	if res != nil {
		var buf [8]byte
		for r, pairs := range res.ByReducer {
			buf[0] = byte(r)
			h.Write(buf[:1])
			for _, p := range pairs {
				h.Write(p.Key)
				h.Write([]byte{0})
				h.Write(p.Value)
				h.Write([]byte{1})
			}
		}
	}
	return h.Sum(nil)
}

// tenantQueue is one tenant's FIFO plus its lifetime counters.
type tenantQueue struct {
	waiting  []*Job
	queued   int // len(waiting), tracked for stats symmetry
	running  int
	done     int
	failed   int
	rejected int
}

// Service is the job service. Construct with New; safe for concurrent use.
type Service struct {
	cfg    Config
	engine engine.Engine
	tel    obs.Telemetry

	mu       sync.Mutex
	tenants  map[string]*tenantQueue
	ring     []string // tenant round-robin order, append-only
	rr       int      // next ring slot to serve
	queued   int
	running  int
	draining bool
	drained  chan struct{} // closed once draining and quiesced
	jobs     map[int64]*Job
	order    []int64 // finished job ids, oldest first, for retention
	retained int64   // sum of the finished records' sizes
	budget   int64   // retainBytes; tests shrink it
	nextID   int64
	ewmaSec  float64 // smoothed job latency, drives RetryAfter
}

// New creates a service. It is idle until submissions arrive.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	tr := trace.New("serve")
	tr.SetCap(traceCap)
	return &Service{
		cfg:     cfg,
		engine:  engine.MPID{Mappers: cfg.Cluster.NumTrackers},
		budget:  retainBytes,
		tel:     obs.Telemetry{Metrics: metrics.NewRegistry(), Tracer: tr, Events: obs.NewRecorder(cfg.EventCap)},
		tenants: make(map[string]*tenantQueue),
		drained: make(chan struct{}),
		jobs:    make(map[int64]*Job),
	}
}

// Telemetry returns the service-wide telemetry: the registry whose
// counters are fleet totals, the capped span collector every finished
// job's spans fold into, and the flight recorder every job's events fold
// into.
func (s *Service) Telemetry() obs.Telemetry { return s.tel }

// Submit queues a job for the tenant, subject to admission control. It
// returns immediately: a *Job handle on admission, ErrDraining after
// shutdown began, or a *SaturatedError when slots and queue are full.
func (s *Service) Submit(tenant, name string, job mapred.Job, splits []mapred.Split) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tenantLocked(tenant)
	if s.draining {
		s.tel.Metrics.Counter("serve.rejected_draining").Inc()
		s.tel.Events.Emit(obs.Event{Type: obs.EvJobRejected, Tenant: tenant, Detail: "draining"})
		return nil, ErrDraining
	}
	depth := s.cfg.Slots + s.cfg.QueueDepth
	if backlog := s.running + s.queued; backlog >= depth {
		tq.rejected++
		s.tel.Metrics.Counter("serve.rejected").Inc()
		s.tel.Events.Emit(obs.Event{Type: obs.EvJobRejected, Tenant: tenant,
			Detail: fmt.Sprintf("saturated: %d/%d backlogged", backlog, depth)})
		return nil, &SaturatedError{
			Queued:     backlog,
			Depth:      depth,
			RetryAfter: s.retryAfterLocked(),
		}
	}
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:       s.nextID,
		Tenant:   tenant,
		Name:     name,
		job:      job,
		splits:   splits,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
		enqueued: time.Now(),
	}
	s.jobs[j.ID] = j
	tq.waiting = append(tq.waiting, j)
	tq.queued++
	s.queued++
	s.tel.Metrics.Counter("serve.submitted").Inc()
	s.tel.Metrics.Gauge("serve.queued").Set(int64(s.queued))
	s.tel.Events.Emit(obs.Event{Type: obs.EvJobAdmitted, Job: j.ID, Tenant: tenant, Detail: name})
	s.dispatchLocked()
	return j, nil
}

// Lookup returns the job with the given id: ErrExpired if its record has
// been evicted from retention, ErrUnknownJob if no such id was ever issued.
func (s *Service) Lookup(id int64) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	switch {
	case ok:
		return j, nil
	case id >= 1 && id <= s.nextID: // ids are issued densely from 1
		return nil, fmt.Errorf("%w: %d", ErrExpired, id)
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownJob, id)
}

// tenantLocked returns the tenant's queue, creating it (and its ring slot)
// on first sight.
func (s *Service) tenantLocked(tenant string) *tenantQueue {
	tq, ok := s.tenants[tenant]
	if !ok {
		tq = &tenantQueue{}
		s.tenants[tenant] = tq
		s.ring = append(s.ring, tenant)
	}
	return tq
}

// retryAfterLocked estimates how long until a resubmission would admit:
// the backlog ahead of it, spread over the slots, paced by the smoothed
// job latency. With no completed jobs yet, a small constant.
func (s *Service) retryAfterLocked() time.Duration {
	lat := time.Duration(s.ewmaSec * float64(time.Second))
	if lat <= 0 {
		lat = 50 * time.Millisecond
	}
	waves := (s.queued + s.cfg.Slots) / s.cfg.Slots
	return time.Duration(waves) * lat
}

// dispatchLocked launches queued jobs into free slots, round-robin across
// tenants, FIFO within each.
func (s *Service) dispatchLocked() {
	for s.running < s.cfg.Slots && s.queued > 0 {
		j := s.popLocked()
		if j == nil {
			return
		}
		tq := s.tenants[j.Tenant]
		tq.running++
		s.running++
		s.queued--
		j.state = StateRunning
		j.started = time.Now()
		s.tel.Metrics.Gauge("serve.queued").Set(int64(s.queued))
		s.tel.Metrics.Gauge("serve.running").Set(int64(s.running))
		go s.runJob(j)
	}
}

// popLocked takes the next job in round-robin tenant order.
func (s *Service) popLocked() *Job {
	for i := 0; i < len(s.ring); i++ {
		slot := (s.rr + i) % len(s.ring)
		tq := s.tenants[s.ring[slot]]
		if len(tq.waiting) == 0 {
			continue
		}
		j := tq.waiting[0]
		tq.waiting = tq.waiting[1:]
		tq.queued--
		s.rr = (slot + 1) % len(s.ring)
		return j
	}
	return nil
}

// runJob executes one admitted job on the service's engine with isolated
// observability, then folds the results back into the service.
func (s *Service) runJob(j *Job) {
	// Isolation: concurrent jobs never see each other's counters or spans,
	// and the service-wide telemetry still sees them all.
	tel := s.tel.Child(j.ID, j.Tenant)
	res, _, err := s.engine.Run(j.ctx, j.job, j.splits, tel)
	j.cancel()
	j.job, j.splits = mapred.Job{}, nil
	// Fold the job's spans into the capped service-wide collector.
	s.tel.Tracer.Add(tel.Tracer.Drain()...)
	j.Result, j.Err = res, err

	if err == nil {
		tel.Events.Emit(obs.Event{Type: obs.EvJobDone, Detail: j.Name})
	} else {
		tel.Events.Emit(obs.Event{Type: obs.EvJobFailed,
			Detail: fmt.Sprintf("%s: %v", j.Name, err)})
	}

	// The job finished here: hashing its output is the record's cost, not
	// part of the job's latency.
	now := time.Now()
	j.digest = OutputDigest(res)
	j.size = recordBytes(res)
	s.mu.Lock()
	j.finished = now
	tq := s.tenants[j.Tenant]
	tq.running--
	s.running--
	if err == nil {
		j.state = StateDone
		tq.done++
		s.tel.Metrics.Counter("serve.done").Inc()
	} else {
		j.state = StateFailed
		tq.failed++
		s.tel.Metrics.Counter("serve.failed").Inc()
	}
	lat := now.Sub(j.enqueued)
	s.tel.Metrics.Timer("serve.job_latency").ObserveDuration(lat)
	// EWMA over running time (not queue wait): what RetryAfter needs is
	// how fast slots turn over.
	const alpha = 0.3
	runSec := now.Sub(j.started).Seconds()
	if s.ewmaSec == 0 {
		s.ewmaSec = runSec
	} else {
		s.ewmaSec = alpha*runSec + (1-alpha)*s.ewmaSec
	}
	s.retainLocked(j)
	s.tel.Metrics.Gauge("serve.running").Set(int64(s.running))
	s.dispatchLocked()
	if s.draining && s.running == 0 && s.queued == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
	close(j.done)
}

// retainLocked charges a finished job's record to the retention budget and
// evicts the oldest finished records while the budget is exceeded — the
// newest always stays, so a just-finished job can be looked up whatever
// its size. Running and queued jobs are not in order and so never evicted.
func (s *Service) retainLocked(j *Job) {
	s.order = append(s.order, j.ID)
	s.retained += j.size
	for s.retained > s.budget && len(s.order) > 1 {
		s.retained -= s.jobs[s.order[0]].size
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// recordBytes approximates what a finished job's record keeps alive: the
// output pairs' bytes and slice headers at a flat per-pair estimate, and
// the record itself.
func recordBytes(res *mapred.Result) int64 {
	n := int64(512)
	if res != nil {
		for _, pairs := range res.ByReducer {
			n += 48 * int64(len(pairs))
			for _, p := range pairs {
				n += int64(len(p.Key) + len(p.Value))
			}
		}
	}
	return n
}

// Drain begins graceful shutdown: stop admitting, let queued and running
// jobs finish, and past the timeout cancel what remains through the job
// contexts (the engine stops a canceled job promptly, whether or not its
// user code watches the context). It returns nil when everything finished
// within budget, or an error naming how many jobs were canceled.
func (s *Service) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.tel.Metrics.Counter("serve.drains").Inc()
		s.tel.Events.Emit(obs.Event{Type: obs.EvServiceDrain,
			Detail: fmt.Sprintf("%d running, %d queued, budget %v", s.running, s.queued, timeout)})
		if s.running == 0 && s.queued == 0 {
			close(s.drained)
		}
	}
	ch := s.drained
	s.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-timer.C:
	}

	// Budget blown: cancel everything still alive. Queued jobs still pass
	// through a slot, but with a dead context they abort immediately.
	s.mu.Lock()
	canceled := 0
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			j.cancel()
			canceled++
			s.tel.Events.Emit(obs.Event{Type: obs.EvJobDrained, Job: j.ID, Tenant: j.Tenant,
				Detail: fmt.Sprintf("canceled %s after %v drain budget", j.state, timeout)})
		}
	}
	s.mu.Unlock()
	<-ch
	return fmt.Errorf("serve: drain timed out after %v, canceled %d jobs", timeout, canceled)
}

// Saturated reports whether admission control is at capacity: the next
// Submit would be rejected.
func (s *Service) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running+s.queued >= s.cfg.Slots+s.cfg.QueueDepth
}

// Draining reports whether graceful shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Health builds the service's /healthz evaluator: "saturation" fails while
// admission control is rejecting, "draining" fails once shutdown has begun
// (so load balancers stop routing to a daemon on its way out).
func (s *Service) Health() *obs.Health {
	h := obs.NewHealth()
	h.Register("saturation", func() obs.Status {
		st := s.Stats()
		if s.Saturated() {
			return obs.Unhealthy("backlog %d/%d", st.Running+st.Queued, s.cfg.Slots+s.cfg.QueueDepth)
		}
		return obs.Healthy("backlog %d/%d", st.Running+st.Queued, s.cfg.Slots+s.cfg.QueueDepth)
	})
	h.Register("draining", func() obs.Status {
		if s.Draining() {
			return obs.Unhealthy("shutdown in progress")
		}
		return obs.Healthy("admitting")
	})
	return h
}

// DefaultSeries selects the service counters, gauges and timers worth a
// soak-length history: admission and completion rates, backlog levels, and
// job latency percentiles.
func DefaultSeries() obs.SeriesConfig {
	return obs.SeriesConfig{
		Counters: []string{"serve.submitted", "serve.done", "serve.failed", "serve.rejected"},
		Gauges:   []string{"serve.running", "serve.queued"},
		Timers:   []string{"serve.job_latency"},
	}
}

// TenantStats is one tenant's lifetime accounting.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Rejected int    `json:"rejected"`
}

// Stats is a consistent snapshot of the service's state.
type Stats struct {
	Queued   int           `json:"queued"`
	Running  int           `json:"running"`
	Done     int           `json:"done"`
	Failed   int           `json:"failed"`
	Rejected int           `json:"rejected"`
	Draining bool          `json:"draining"`
	Tenants  []TenantStats `json:"tenants"`
}

// JobInfo is one job's snapshot for listings (the admin /jobs page).
type JobInfo struct {
	ID       int64     `json:"id"`
	Tenant   string    `json:"tenant"`
	Name     string    `json:"name"`
	State    string    `json:"state"`
	Enqueued time.Time `json:"enqueued"`
	Latency  float64   `json:"latency_ms,omitempty"` // zero until finished
	Error    string    `json:"error,omitempty"`
}

// Jobs snapshots every retained job, oldest submission first.
func (s *Service) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		info := JobInfo{
			ID:       j.ID,
			Tenant:   j.Tenant,
			Name:     j.Name,
			State:    j.state.String(),
			Enqueued: j.enqueued,
		}
		if j.state == StateDone || j.state == StateFailed {
			info.Latency = float64(j.finished.Sub(j.enqueued).Microseconds()) / 1000
			if j.Err != nil {
				info.Error = j.Err.Error()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stats snapshots the service, tenants sorted by name.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Queued: s.queued, Running: s.running, Draining: s.draining}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tq := s.tenants[name]
		st.Done += tq.done
		st.Failed += tq.failed
		st.Rejected += tq.rejected
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:   name,
			Queued:   tq.queued,
			Running:  tq.running,
			Done:     tq.done,
			Failed:   tq.failed,
			Rejected: tq.rejected,
		})
	}
	return st
}
