package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/serve"
)

// ServeBench is the job-service benchmark behind BENCH_serve.json: a
// full-stack soak of cmd/mpid-serve's machinery — an in-process service
// behind its real RPC front-end, a swarm of concurrent tenant clients each
// submitting small WordCount jobs over the wire, admission control pushing
// back when slots and queue fill, and the per-tenant round-robin scheduler
// deciding who runs next. It reports client-observed job latency (p50/p99),
// throughput, how much backpressure the swarm absorbed (rejections and
// retries), and a cross-tenant fairness ratio.

// ServeBenchConfig shapes one service soak.
type ServeBenchConfig struct {
	// Tenants is the number of distinct tenants submitting.
	Tenants int `json:"tenants"`
	// JobsPerTenant is how many jobs each tenant submits; every job gets
	// its own client connection and goroutine, so Tenants*JobsPerTenant
	// submissions are in flight at once.
	JobsPerTenant int `json:"jobs_per_tenant"`
	// Slots is the service's concurrent-job limit.
	Slots int `json:"slots"`
	// QueueDepth is the service's waiting-queue bound. Sized below the
	// submission swarm, it forces rejections — the benchmark exercises
	// backpressure, not just throughput.
	QueueDepth int `json:"queue_depth"`
	// JobBytes is each WordCount job's input size.
	JobBytes int64 `json:"job_bytes"`
	// SplitBytes is the per-job input split size.
	SplitBytes int64 `json:"split_bytes"`
	// Reducers is the per-job reduce count.
	Reducers int64 `json:"reducers"`
	// Trackers is the per-job tasktracker count.
	Trackers int `json:"trackers"`
	// Seed fixes every job's generated input (identical inputs make the
	// cross-job digest equality check meaningful).
	Seed int64 `json:"seed"`
}

// DefaultServeBench is the committed-baseline configuration: 120 concurrent
// submissions from 4 tenants against 8 slots + a 24-deep queue, so roughly
// three quarters of the swarm meets admission control at least once.
func DefaultServeBench() ServeBenchConfig {
	return ServeBenchConfig{
		Tenants: 4, JobsPerTenant: 30, Slots: 8, QueueDepth: 24,
		JobBytes: 64 << 10, SplitBytes: 16 << 10, Reducers: 2, Trackers: 2,
		Seed: 1,
	}
}

// SmokeServeBench is a seconds-scale configuration for CI smoke runs.
func SmokeServeBench() ServeBenchConfig {
	return ServeBenchConfig{
		Tenants: 3, JobsPerTenant: 4, Slots: 4, QueueDepth: 4,
		JobBytes: 16 << 10, SplitBytes: 8 << 10, Reducers: 2, Trackers: 2,
		Seed: 1,
	}
}

// ServeTenantRow is one tenant's share of the soak.
type ServeTenantRow struct {
	Tenant  string  `json:"tenant"`
	Jobs    int     `json:"jobs"`
	MeanMs  float64 `json:"mean_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Retries int     `json:"retries"`
}

// ServeBenchResult is the schema of BENCH_serve.json.
type ServeBenchResult struct {
	Config        ServeBenchConfig `json:"config"`
	Jobs          int              `json:"jobs"`
	WallMs        float64          `json:"wall_ms"`
	Throughput    float64          `json:"throughput_jobs_per_s"`
	P50Ms         float64          `json:"p50_ms"`
	P99Ms         float64          `json:"p99_ms"`
	MeanMs        float64          `json:"mean_ms"`
	Rejected      int              `json:"rejected"`       // saturated submissions (later retried)
	Retries       int              `json:"retries"`        // resubmissions after backoff
	FairnessRatio float64          `json:"fairness_ratio"` // max/min cross-tenant mean latency; 1.0 is perfectly fair
	Tenants       []ServeTenantRow `json:"tenants"`
	Timestamp     string           `json:"timestamp,omitempty"`
}

// serveBenchJob is one client's observation of one job.
type serveBenchJob struct {
	tenant  string
	latency time.Duration
	retries int
	digest  []byte
}

// RunServeBench boots the service with its RPC front-end, releases the
// submission swarm, and gathers client-observed results. Every job runs
// the identical deterministic WordCount, so the run fails if any two
// output digests differ — correctness gates the timing, as in the other
// suites.
func RunServeBench(cfg ServeBenchConfig) (*ServeBenchResult, error) {
	svc := serve.New(serve.Config{
		Slots:      cfg.Slots,
		QueueDepth: cfg.QueueDepth,
		Engine:     "hadoop", // what BENCH_serve.json was measured on
		Cluster: hadoop.Config{
			NumTrackers: cfg.Trackers,
		},
	})
	srv := hadooprpc.NewServer()
	srv.Register(serve.NewProtocol(svc, serve.NewWorkloads()))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("servebench: listen: %w", err)
	}
	defer srv.Close()

	params := map[string]int64{
		"bytes": cfg.JobBytes, "split": cfg.SplitBytes,
		"reducers": cfg.Reducers, "seed": cfg.Seed,
	}
	// Waits block server-side until the job finishes; give the whole soak
	// one generous call budget rather than the 30 s default.
	opts := hadooprpc.Options{CallTimeout: 15 * time.Minute}

	total := cfg.Tenants * cfg.JobsPerTenant
	results := make([]serveBenchJob, total)
	errs := make([]error, total)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < cfg.Tenants; t++ {
		tenant := fmt.Sprintf("tenant%d", t)
		for i := 0; i < cfg.JobsPerTenant; i++ {
			idx := t*cfg.JobsPerTenant + i
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[idx], errs[idx] = submitOne(addr, opts, tenant, params)
			}()
		}
	}
	wallStart := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(wallStart)
	if err := svc.Drain(time.Minute); err != nil {
		return nil, fmt.Errorf("servebench: %w", err)
	}

	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("servebench: %w", err)
		}
	}
	// Byte-identical gate: every job ran the same deterministic input.
	for i := 1; i < total; i++ {
		if !bytes.Equal(results[i].digest, results[0].digest) {
			return nil, fmt.Errorf("servebench: job %d output digest differs", i)
		}
	}

	res := &ServeBenchResult{Config: cfg, Jobs: total}
	res.WallMs = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		res.Throughput = float64(total) / wall.Seconds()
	}
	// metrics.Timer holds exactly the percentile machinery this summary
	// needs (interpolated p50/p99 over the observations, exact at this
	// scale), so observe latencies in milliseconds instead of hand-sorting.
	var allT metrics.Timer
	perTenant := make(map[string]*metrics.Timer)
	for _, r := range results {
		ms := float64(r.latency.Microseconds()) / 1000
		allT.Observe(ms)
		t := perTenant[r.tenant]
		if t == nil {
			t = &metrics.Timer{}
			perTenant[r.tenant] = t
		}
		t.Observe(ms)
		res.Retries += r.retries
	}
	allStats := allT.Stats()
	res.P50Ms = allStats.P50
	res.P99Ms = allStats.P99
	res.MeanMs = allStats.Mean

	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	minMean, maxMean := 0.0, 0.0
	for _, name := range names {
		st := perTenant[name].Stats()
		if minMean == 0 || st.Mean < minMean {
			minMean = st.Mean
		}
		if st.Mean > maxMean {
			maxMean = st.Mean
		}
		row := ServeTenantRow{Tenant: name, Jobs: int(st.Count), MeanMs: st.Mean, P99Ms: st.P99}
		for _, r := range results {
			if r.tenant == name {
				row.Retries += r.retries
			}
		}
		res.Tenants = append(res.Tenants, row)
	}
	if minMean > 0 {
		res.FairnessRatio = maxMean / minMean
	}
	res.Rejected = svc.Stats().Rejected
	return res, nil
}

// submitOne is one swarm member: dial, submit (retrying saturation after
// the service's own hint), wait, and report the client-observed latency
// from first submission attempt to completed wait.
func submitOne(addr string, opts hadooprpc.Options, tenant string, params map[string]int64) (serveBenchJob, error) {
	c, err := serve.DialService(addr, opts)
	if err != nil {
		return serveBenchJob{}, err
	}
	defer c.Close()
	out := serveBenchJob{tenant: tenant}
	start := time.Now()
	var id int64
	for {
		id, err = c.Submit(tenant, "wordcount", params)
		if err == nil {
			break
		}
		var sat *serve.SaturatedError
		if !errors.As(err, &sat) {
			return out, fmt.Errorf("submit (%s): %w", tenant, err)
		}
		// Backpressure working as designed: honor the hint and resubmit.
		out.retries++
		time.Sleep(sat.RetryAfter)
	}
	r, err := c.Wait(id)
	if err != nil {
		return out, fmt.Errorf("wait (%s job %d): %w", tenant, id, err)
	}
	if !r.OK {
		return out, fmt.Errorf("job %d (%s) failed: %s", id, tenant, r.ErrMsg)
	}
	out.latency = time.Since(start)
	out.digest = r.Digest
	return out, nil
}

// MarshalServeBench renders the result as the BENCH_serve.json body.
func MarshalServeBench(r *ServeBenchResult) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RenderServeBench prints the soak summary table.
func RenderServeBench(r *ServeBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "job service soak (%d tenants x %d jobs, %d slots + %d queue)\n",
		r.Config.Tenants, r.Config.JobsPerTenant, r.Config.Slots, r.Config.QueueDepth)
	fmt.Fprintf(&b, "  jobs: %d in %.1f ms (%.1f jobs/s)\n", r.Jobs, r.WallMs, r.Throughput)
	fmt.Fprintf(&b, "  latency p50 %.1f ms  p99 %.1f ms  mean %.1f ms\n", r.P50Ms, r.P99Ms, r.MeanMs)
	fmt.Fprintf(&b, "  backpressure: %d rejections, %d retries\n", r.Rejected, r.Retries)
	fmt.Fprintf(&b, "  fairness ratio (max/min tenant mean latency): %.2f\n", r.FairnessRatio)
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "    %-10s %3d jobs  mean %8.1f ms  p99 %8.1f ms  retries %d\n",
			t.Tenant, t.Jobs, t.MeanMs, t.P99Ms, t.Retries)
	}
	return b.String()
}
