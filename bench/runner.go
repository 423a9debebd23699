package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/serve"
	"github.com/ict-repro/mpid/internal/trace"
	"github.com/ict-repro/mpid/internal/workload"
)

// sample is one timed job.
type sample struct {
	rawMs float64 // latency: call to return (closed loop), due time to Wait returning (open loop)
	cpuMs float64 // process CPU over the job; closed loop only
	ok    bool    // output verified (and, open loop, the latency limit met: decided once calibrated)
}

// observed is what a traced job showed at its layer boundaries: busy times
// in raw ms (calibrated later with the segment's bracket) and plain counts.
type observed struct {
	times  map[string]float64
	counts map[string]float64
}

// segment is one stretch of jobs between two calibration bursts.
type segment struct {
	calib   calibPoint
	traced  bool
	samples []sample
	wall    time.Duration // closed: sum of job latencies; open: first due time to drained
	cpu     time.Duration // open loop: process CPU over the segment (closed-loop samples carry their own)
	lagMs   []float64     // open loop: how late each job was sent
	jobs    []observed    // traced segments only
}

// collector keeps a traced run's spans in memory until the run ends.
type collector struct {
	mu    sync.Mutex
	spans []trace.Span
}

func (c *collector) add(spans []trace.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, spans...)
	c.mu.Unlock()
}

// runner drives one workload's jobs. verified counts every job whose output
// was checked, failed those that were wrong or errored.
type runner interface {
	// warmup runs n jobs and fully verifies each.
	warmup(n int) error
	// cold times one cold-start cycle: build whatever the public API needs
	// before a first job, run one job, tear down. The output is verified
	// outside the timed region.
	cold() (time.Duration, error)
	// segment runs jobs for d; with a collector every job is traced.
	segment(d time.Duration, col *collector) *segment
	tally() (verified, failed int)
	close()
}

func newRunner(p *prepared) (runner, error) {
	if p.spec.engine != nil {
		return &closedRunner{p: p, pool: bufpool.New()}, nil
	}
	r := &openRunner{p: p}
	if err := r.boot(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Closed loop: one client, the next job starts when the previous returned.

type closedRunner struct {
	p        *prepared
	pool     *bufpool.Pool // shared across jobs, as a long-lived caller would
	timed    int
	verified int
	failed   int
}

// digestEvery: warm-up and cold-cycle jobs and every digestEvery-th timed job
// are compared to the oracle digest; every job is pair-counted.
const digestEvery = 8

func (r *closedRunner) check(res *mapred.Result, err error, full bool) bool {
	r.verified++
	ok := err == nil && countPairs(res) == r.p.oracle.outputPairs
	if ok && full {
		ok = bytes.Equal(serve.OutputDigest(res), r.p.oracle.digest)
	}
	if !ok {
		r.failed++
	}
	return ok
}

func (r *closedRunner) warmup(n int) error {
	job := r.p.job
	job.Pool = r.pool
	for i := 0; i < n; i++ {
		res, _, err := r.p.spec.engine(job, r.p.splits)
		if !r.check(res, err, true) {
			return fmt.Errorf("%s: warm-up job %d wrong: err=%v", r.p.spec.name, i, err)
		}
	}
	return nil
}

func (r *closedRunner) cold() (time.Duration, error) {
	job := r.p.job
	start := time.Now()
	job.Pool = bufpool.New()
	res, _, err := r.p.spec.engine(job, r.p.splits)
	d := time.Since(start)
	if !r.check(res, err, true) {
		return d, fmt.Errorf("%s: cold-start job wrong: err=%v", r.p.spec.name, err)
	}
	return d, nil
}

func (r *closedRunner) segment(d time.Duration, col *collector) *segment {
	seg := &segment{traced: col != nil}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		job, splits := r.p.job, r.p.splits
		job.Pool = r.pool
		var pr *probe
		if col != nil {
			pr = newProbe(r.p.oracle)
			job, splits = pr.wrap(job, splits)
		}
		pool0 := r.pool.Stats()
		c0, t0 := processCPU(), time.Now()
		res, rep, err := r.p.spec.engine(job, splits)
		t1, c1 := time.Now(), processCPU()
		seg.samples = append(seg.samples, sample{
			rawMs: ms(t1.Sub(t0)),
			cpuMs: ms(c1 - c0),
			ok:    r.check(res, err, r.timed%digestEvery == 0),
		})
		seg.wall += t1.Sub(t0)
		r.timed++
		if pr != nil && err == nil {
			ob := observe(pr, t0, t1, res, rep)
			pool1 := r.pool.Stats()
			ob.counts["bufpool.gets_per_job"] = float64(pool1.Gets - pool0.Gets)
			ob.counts["bufpool.hits"] = float64(pool1.Hits - pool0.Hits)
			seg.jobs = append(seg.jobs, ob)
			col.add(pr.spans(fmt.Sprintf("%s job %d", r.p.spec.name, r.timed), "bench", t0, t1))
		}
	}
	return seg
}

func (r *closedRunner) tally() (int, int) { return r.verified, r.failed }
func (r *closedRunner) close()            {}

// observe folds a finished traced job into per-layer values. Only the MPI-D
// engine returns no report, and only there is the emit handed to the mapper
// core.D.Send, so only there are emit timings that layer's.
func observe(pr *probe, start, end time.Time, res *mapred.Result, rep *hadoop.JobReport) observed {
	ob := observed{times: pr.times(start, end), counts: map[string]float64{
		"mapred.map_tasks":       float64(res.MapTasks),
		"mapred.failed_attempts": float64(res.FailedAttempts),
	}}
	if rep == nil {
		mc := res.MapCounters
		ob.times["core.emit_ns_per_pair"] = pr.emitNsPerPair()
		ob.counts["core.pairs_sent"] = float64(mc.PairsSent)
		ob.counts["core.pairs_combined"] = float64(mc.PairsCombined)
		ob.counts["core.spills"] = float64(mc.Spills)
		ob.counts["core.messages_sent"] = float64(mc.MessagesSent)
		ob.counts["core.bytes_sent"] = float64(mc.BytesSent)
		ob.counts["core.pairs_received"] = pr.reduceValues()
		return ob
	}
	delete(ob.times, "core.emit_max_ms")
	{
		var mapRun, mapSpill, copyD, mergeD, sortD, reduceD time.Duration
		for _, m := range rep.Maps {
			mapRun += m.Run
			mapSpill += m.Spill
		}
		for _, rd := range rep.Reduces {
			copyD += rd.Copy
			mergeD += rd.Merge
			sortD += rd.Sort
			reduceD += rd.Reduce
		}
		ob.times["hadoop.map_run_ms"] = ms(mapRun)
		ob.times["hadoop.map_spill_ms"] = ms(mapSpill)
		ob.times["hadoop.reduce_copy_ms"] = ms(copyD)
		ob.times["hadoop.reduce_merge_ms"] = ms(mergeD)
		ob.times["hadoop.reduce_sort_ms"] = ms(sortD)
		ob.times["hadoop.reduce_reduce_ms"] = ms(reduceD)
		ob.counts["hadoop.copy_share"] = rep.CopyShareOfTotal() / 100
		ob.counts["hadoop.reexecutions"] = float64(rep.Metrics.Counter("hadoop.reexecutions"))
		ob.counts["hadooprpc.calls_per_job"] = float64(rep.Metrics.Counter("rpc.calls"))
		ob.counts["jetty.fetches_per_job"] = float64(rep.Metrics.Counter("shuffle.fetches"))
		ob.counts["jetty.fetch_bytes_per_job"] = float64(rep.Metrics.Counter("shuffle.fetch_bytes"))
	}
	return ob
}

// ---------------------------------------------------------------------------
// Open loop: jobs are sent on a schedule whatever the service is doing.

// serveWorkload is the name the benchmark registers its WordCount under.
const serveWorkload = "bench-wordcount"

// vocabSeed fixes the WordCount vocabulary. workload.WordCount draws the
// vocabulary from the job seed too, and the length of the few hottest Zipf
// words then moves the pair count of a fixed-size input by ±6 % from seed to
// seed; with the vocabulary fixed, the run's seed changes the text and
// nothing about its statistics.
const vocabSeed = 1

// wordCount is workload.WordCount's job over text from the public
// generators with a fixed vocabulary.
func wordCount(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	job, _, err := workload.WordCount(map[string]int64{"bytes": 1, "split": 1, "reducers": workload.Param(params, "reducers", nReducers)})
	if err != nil {
		return mapred.Job{}, nil, err
	}
	vocab := workload.NewVocabulary(500, vocabSeed)
	text := workload.NewTextGenerator(vocab, 1.15, workload.Param(params, "seed", 1)).BytesOfText(int(params["bytes"]))
	return job, mapred.SplitText(text, int(params["split"])), nil
}

// clientPool is how many RPC connections the load generator keeps open. At
// 12 jobs/s and ~40 ms a job fewer than one job is in flight on average; the
// pool only has to cover bursts behind a stall.
const clientPool = 16

type openRunner struct {
	p       *prepared
	svc     *serve.Service
	srv     *hadooprpc.Server
	clients chan *serve.Client // buffered to clientPool: an idle-connection pool

	issued   int64 // jobs sent so far: tenant alternation and probe ids
	verified int
	failed   int

	mu     sync.Mutex
	probes map[int64]*probe // traced jobs by probe id, filled before submit

	inflight    atomic.Int64
	inflightMax atomic.Int64
	submitUs    []float64 // Submit RPC round trips, under mu
}

// bootService builds what a first served job needs: the service, its RPC
// listener and one connected client.
func (r *openRunner) bootService() (*serve.Service, *hadooprpc.Server, string, *serve.Client, error) {
	svc := serve.New(serve.Config{
		Slots:      serveSlots,
		QueueDepth: serveQueue,
		Cluster:    hadoop.Config{NumTrackers: nMappers},
	})
	wl := serve.NewWorkloads()
	wl.Register(serveWorkload, r.buildServed, "bytes", "split", "reducers", "seed", "probe")
	srv := hadooprpc.NewServer()
	srv.Register(serve.NewProtocol(svc, wl))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, "", nil, fmt.Errorf("serve-open: listen: %w", err)
	}
	c, err := serve.DialService(addr, hadooprpc.Options{})
	if err != nil {
		srv.Close()
		return nil, nil, "", nil, fmt.Errorf("serve-open: dial: %w", err)
	}
	return svc, srv, addr, c, nil
}

// buildServed is the server-side job builder; a submission carrying a probe
// id gets its job wrapped by that probe.
func (r *openRunner) buildServed(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	job, splits, err := wordCount(params)
	if err != nil {
		return job, splits, err
	}
	r.mu.Lock()
	pr := r.probes[params["probe"]]
	r.mu.Unlock()
	if pr != nil {
		job, splits = pr.wrap(job, splits)
	}
	return job, splits, nil
}

func (r *openRunner) boot() error {
	svc, srv, addr, c, err := r.bootService()
	if err != nil {
		return err
	}
	r.svc, r.srv = svc, srv
	r.probes = make(map[int64]*probe)
	r.clients = make(chan *serve.Client, clientPool)
	r.clients <- c
	for i := 1; i < clientPool; i++ {
		c, err := serve.DialService(addr, hadooprpc.Options{})
		if err != nil {
			r.close()
			return fmt.Errorf("serve-open: dial: %w", err)
		}
		r.clients <- c
	}
	return nil
}

func (r *openRunner) close() {
	for len(r.clients) > 0 {
		(<-r.clients).Close()
	}
	r.svc.Drain(5 * time.Second)
	r.srv.Close()
}

// submit sends the seq-th job through client c and waits for it. Tenants
// alternate; seq doubles as the probe id the server-side builder looks up.
func (r *openRunner) submit(c *serve.Client, seq int64) (id int64, submitted time.Duration, err error) {
	params := map[string]int64{"probe": seq}
	for k, v := range r.p.params {
		params[k] = v
	}
	tenant := "tenant-a"
	if seq%2 == 1 {
		tenant = "tenant-b"
	}
	t0 := time.Now()
	id, err = c.Submit(tenant, serveWorkload, params)
	submitted = time.Since(t0)
	if err != nil {
		return 0, submitted, err
	}
	rr, err := c.Wait(id)
	if err != nil {
		return id, submitted, err
	}
	if !rr.OK {
		return id, submitted, errors.New(rr.ErrMsg)
	}
	if !bytes.Equal(rr.Digest, r.p.oracle.digest) {
		return id, submitted, errors.New("output digest differs from the oracle's")
	}
	return id, submitted, nil
}

func (r *openRunner) warmup(n int) error {
	c := <-r.clients
	defer func() { r.clients <- c }()
	for i := 0; i < n; i++ {
		r.verified++
		if _, _, err := r.submit(c, 0); err != nil {
			r.failed++
			return fmt.Errorf("serve-open: warm-up job %d: %w", i, err)
		}
	}
	return nil
}

func (r *openRunner) cold() (time.Duration, error) {
	cold := &openRunner{p: r.p}
	start := time.Now()
	svc, srv, _, c, err := cold.bootService()
	if err != nil {
		return 0, err
	}
	_, _, jobErr := cold.submit(c, 0)
	c.Close()
	drainErr := svc.Drain(5 * time.Second)
	srv.Close()
	d := time.Since(start)
	r.verified++
	if err := errors.Join(jobErr, drainErr); err != nil {
		r.failed++
		return d, fmt.Errorf("serve-open: cold-start cycle: %w", err)
	}
	return d, nil
}

// pace calls fire(i, due) for n arrivals spaced interval apart from start,
// never before an arrival is due, and returns how late each was fired. A
// stall in fire (or in the scheduler) delays later arrivals but does not move
// their due times, so latency measured from due counts the wait.
func pace(start time.Time, interval time.Duration, n int, fire func(i int, due time.Time)) (lagMs []float64) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lagMs = append(lagMs, ms(time.Since(due)))
		fire(i, due)
	}
	return lagMs
}

func (r *openRunner) segment(d time.Duration, col *collector) *segment {
	interval := time.Second / serveRate
	n := int(d / interval)
	seg := &segment{traced: col != nil, samples: make([]sample, n)}
	if col != nil {
		seg.jobs = make([]observed, n)
	}
	var wg sync.WaitGroup
	cpu0, start := processCPU(), time.Now()
	seg.lagMs = pace(start, interval, n, func(i int, due time.Time) {
		r.issued++
		seq := r.issued
		var pr *probe
		if col != nil {
			pr = newProbe(r.p.oracle)
			r.mu.Lock()
			r.probes[seq] = pr
			r.mu.Unlock()
		}
		if now := r.inflight.Add(1); now > r.inflightMax.Load() {
			r.inflightMax.Store(now) // only the generator goroutine stores
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := <-r.clients
			id, submitted, err := r.submit(c, seq)
			end := time.Now()
			r.clients <- c
			r.inflight.Add(-1)
			seg.samples[i] = sample{rawMs: ms(end.Sub(due)), ok: err == nil}
			r.mu.Lock()
			r.submitUs = append(r.submitUs, float64(submitted)/1e3)
			delete(r.probes, seq)
			r.mu.Unlock()
			if pr == nil || err != nil {
				return
			}
			j, err := r.svc.Lookup(id)
			if err != nil {
				return
			}
			seg.jobs[i] = observe(pr, due, end, j.Result, j.Report)
			col.add(pr.spans(fmt.Sprintf("serve-open job %d", id), j.Tenant, due, end))
		}()
	})
	wg.Wait()
	seg.wall = time.Since(start)
	seg.cpu = processCPU() - cpu0
	for _, s := range seg.samples {
		r.verified++
		if !s.ok {
			r.failed++
		}
	}
	return seg
}

func (r *openRunner) tally() (int, int) { return r.verified, r.failed }
