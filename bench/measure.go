package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/trace"
)

// options shapes one run of one workload. main fixes the driver's values;
// the smoke test shrinks them.
type options struct {
	seed     int64
	segments int           // timed segments, each between two calibration bursts
	segment  time.Duration // length of one segment
	cycles   int           // cold-start cycles behind setup_s
	warmups  int           // verified, untimed jobs before anything is timed
	trace    bool          // the traced, per-layer run instead of the end-to-end one
	outDir   string        // where the traced run writes its Chrome trace
}

// report is one run's result: every metric of the run's kind by name.
type report struct {
	workload  string
	values    map[string]float64
	samples   int // timed jobs behind job_p50_ms / job_p90_ms
	attempted int // every job whose output was checked, warm-up and cycles included
	failed    int
}

// cycleGroup is how many cold-start cycles run between two bursts.
const cycleGroup = 5

// measure runs one workload once and returns either its end-to-end metrics
// (tracing off) or its per-layer metrics (the separate traced run).
func measure(k *kernel, s *spec, o options) (*report, error) {
	p, err := prepare(s, o.seed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(p)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.warmup(o.warmups); err != nil {
		return nil, err
	}

	rep := &report{workload: s.name, values: make(map[string]float64)}
	if o.trace {
		err = measureLayers(k, p, r, o, rep)
	} else {
		err = measureEndToEnd(k, p, r, o, rep)
	}
	rep.attempted, rep.failed = r.tally()
	return rep, err
}

func measureEndToEnd(k *kernel, p *prepared, r runner, o options, rep *report) error {
	setup, rawSetup, err := coldCycles(k, r, o.cycles)
	if err != nil {
		return err
	}
	segs, bursts := window(k, r, make([]bool, o.segments), o.segment, nil)
	sum := summarize(p, segs)
	rep.samples = sum.n
	v := rep.values
	v["setup_s"], v["raw.setup_s"] = setup, rawSetup
	v["job_p50_ms"], v["raw.job_p50_ms"] = sum.p50, sum.rawP50
	v["job_p90_ms"], v["raw.job_p90_ms"] = sum.p90, sum.rawP90
	v["cpu_ms_per_job"], v["raw.cpu_ms_per_job"] = sum.cpuPerJob, sum.rawCPUPerJob
	v["ok_share"] = sum.okShare
	v["peak_rss_mb"] = peakRSSMB()
	v["bench.calib_ms"], v["bench.calib_spread"] = calibStats(bursts)
	return nil
}

// calibStats is the median burst of a window and the bursts' range over it:
// how fast the machine was and how much it drifted within the run.
func calibStats(bursts []calibPoint) (medianMs, spread float64) {
	var walls []float64
	for _, b := range bursts {
		walls = append(walls, b.wallMs)
	}
	lo, hi := minMax(walls)
	return median(walls), (hi - lo) / median(walls)
}

// coldCycles runs n cold-start cycles in groups bracketed by bursts and
// returns the median cycle in seconds, calibrated and raw. One cold shot
// moved 20 % between identical runs; the median of twenty does not.
func coldCycles(k *kernel, r runner, n int) (calibratedS, rawS float64, err error) {
	var calibrated, all []float64
	prev := k.burst()
	for done := 0; done < n; {
		var raw []float64
		for i := 0; i < cycleGroup && done < n; i++ {
			d, err := r.cold()
			if err != nil {
				return 0, 0, err
			}
			raw = append(raw, ms(d))
			done++
		}
		next := k.burst()
		cal := bracket(prev, next)
		for _, v := range raw {
			calibrated = append(calibrated, cal.wall(v)/1e3)
		}
		all = append(all, raw...)
		prev = next
	}
	return median(calibrated), median(all) / 1e3, nil
}

// window runs one segment per plan entry (true = traced), a burst before the
// first, between each pair and after the last, and gives every segment the
// mean of its two bracketing bursts.
func window(k *kernel, r runner, plan []bool, d time.Duration, col *collector) ([]*segment, []calibPoint) {
	bursts := []calibPoint{k.burst()}
	var segs []*segment
	for _, traced := range plan {
		var c *collector
		if traced {
			c = col
		}
		seg := r.segment(d, c)
		b := k.burst()
		seg.calib = bracket(bursts[len(bursts)-1], b)
		bursts = append(bursts, b)
		segs = append(segs, seg)
	}
	return segs, bursts
}

// summary is the end-to-end view of a set of segments.
type summary struct {
	n              int
	p50, p90       float64 // calibrated ms
	rawP50, rawP90 float64
	cpuPerJob      float64 // calibrated CPU-ms
	rawCPUPerJob   float64
	okShare        float64
	throughputMBs  float64 // raw: input MB through the engine per second of job time
	lagP90         float64
}

func summarize(p *prepared, segs []*segment) summary {
	var cal, raw, cpu, rawCPU, lag []float64
	var ok int
	var wall time.Duration
	open := p.spec.engine == nil
	for _, seg := range segs {
		for _, s := range seg.samples {
			lat := seg.calib.wall(s.rawMs)
			cal = append(cal, lat)
			raw = append(raw, s.rawMs)
			if !open {
				cpu = append(cpu, seg.calib.cpu(s.cpuMs))
				rawCPU = append(rawCPU, s.cpuMs)
			}
			// A served job that misses the latency limit counts as
			// failed for ok_share, like a refused or wrong one.
			if s.ok && (!open || lat <= serveLimitMs) {
				ok++
			}
		}
		if open && len(seg.samples) > 0 {
			perJob := ms(seg.cpu) / float64(len(seg.samples))
			cpu = append(cpu, seg.calib.cpu(perJob))
			rawCPU = append(rawCPU, perJob)
		}
		wall += seg.wall
		lag = append(lag, seg.lagMs...)
	}
	sum := summary{
		n:   len(cal),
		p50: median(cal), p90: quantile(cal, 0.9),
		rawP50: median(raw), rawP90: quantile(raw, 0.9),
		cpuPerJob: median(cpu), rawCPUPerJob: median(rawCPU),
		lagP90: quantile(lag, 0.9),
	}
	if sum.n > 0 {
		sum.okShare = float64(ok) / float64(sum.n)
		sum.throughputMBs = p.inputMB * float64(sum.n) / wall.Seconds()
	}
	return sum
}

func measureLayers(k *kernel, p *prepared, r runner, o options, rep *report) error {
	// Untraced and traced segments alternate, so drift hits both alike; at
	// half length, so the traced run takes half the end-to-end run's window.
	plan := make([]bool, max(2, o.segments))
	for i := range plan {
		plan[i] = i%2 == 1
	}
	col := &collector{}
	rss0 := currentRSSMB()
	segs, bursts := window(k, r, plan, o.segment/2, col)
	rss1 := currentRSSMB()
	var plain, traced []*segment
	for _, seg := range segs {
		if seg.traced {
			traced = append(traced, seg)
		} else {
			plain = append(plain, seg)
		}
	}
	off, on := summarize(p, plain), summarize(p, traced)
	rep.samples = off.n
	v := rep.values
	for _, m := range perLayer {
		v[m.name] = 0 // a layer the workload does not touch reads 0
	}

	v["bench.calib_ms"], v["bench.calib_spread"] = calibStats(bursts)
	v["bench.raw_job_p50_ms"] = off.rawP50
	v["bench.raw_job_p90_ms"] = off.rawP90
	v["bench.raw_throughput_mb_s"] = off.throughputMBs
	v["bench.gen_lag_p90_ms"] = off.lagP90
	if off.p50 > 0 {
		v["bench.trace_overhead"] = on.p50/off.p50 - 1
	}
	v["bench.x_plain"] = off.rawP50 / (p.oracle.seconds * 1e3)
	v["workload.gen_s"] = p.genS
	v["workload.oracle_s"] = p.oracle.seconds
	v["workload.input_mb"] = p.inputMB
	v["workload.output_pairs"] = float64(p.oracle.outputPairs)

	// Per-job observations, times calibrated with their segment's bracket.
	perJob := make(map[string][]float64)
	for _, seg := range traced {
		for _, ob := range seg.jobs {
			for name, t := range ob.times {
				perJob[name] = append(perJob[name], seg.calib.wall(t))
			}
			for name, n := range ob.counts {
				perJob[name] = append(perJob[name], n)
			}
		}
	}
	for name, vals := range perJob {
		switch name {
		case "bufpool.hits": // only feeds the ratio below
		case "core.emit_max_ms": // a stall is rare and sampled: the run's worst
			_, v[name] = minMax(vals)
		case "mapred.split_read_ms", "mapred.map_user_ms", "mapred.reduce_user_ms",
			"core.emit_ns_per_pair", "core.pairs_received":
			// Scaled-up samples: a stall caught in one job's sample stands
			// for the stalls missed in the others, so the mean is the estimate.
			v[name] = mean(vals)
		default:
			v[name] = median(vals)
		}
	}
	if sent := v["core.pairs_sent"]; sent > 0 {
		v["core.combine_ratio"] = v["core.pairs_combined"] / sent
	}
	if gets := mean(perJob["bufpool.gets_per_job"]); gets > 0 {
		v["bufpool.hit_ratio"] = mean(perJob["bufpool.hits"]) / gets
	}

	e := effortOf(o.segment)
	rungs, err := ladder(k, p, e)
	if err != nil {
		return err
	}
	for name, val := range rungs {
		v[name] = val
	}
	if err := extras(k, p, r, e, off, rep); err != nil {
		return err
	}
	if or, ok := r.(*openRunner); ok && off.n+on.n > 0 {
		v["serve.inflight_max"] = float64(or.inflightMax.Load())
		v["serve.rejected"] = float64(or.svc.Stats().Rejected)
		v["serve.rss_mb_per_100_jobs"] = (rss1 - rss0) / float64(off.n+on.n) * 100
	}
	return writeTrace(o.outDir, p.spec.name, col.spans)
}

// interleave runs the two jobs alternately n times each and returns each
// side's median wall ms: drift hits both alike.
func interleave(n int, a, b func() error) (aMs, bMs float64, err error) {
	var as, bs []float64
	for i := 0; i < n; i++ {
		for j, f := range []func() error{a, b} {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, 0, err
			}
			if d := ms(time.Since(t0)); j == 0 {
				as = append(as, d)
			} else {
				bs = append(bs, d)
			}
		}
	}
	return median(as), median(bs), nil
}

// extras measures the per-layer values that need jobs of their own: the live
// Figure 6 ratio (both sorts), the hadoop engine's idle floor (the workloads
// on that engine) and the service's boot time and overhead over the engine it
// wraps. Pairs are interleaved so drift hits both sides alike.
func extras(k *kernel, p *prepared, r runner, e effort, off summary, rep *report) error {
	v := rep.values
	run := func(engine engineFunc, splits []mapred.Split) func() error {
		return func() error {
			_, _, err := engine(p.job, splits)
			return err
		}
	}
	if p.spec.sort {
		tcpMs, hadoopMs, err := interleave(e.n(6), run(runTCP, p.splits), run(runHadoop, p.splits))
		if err != nil {
			return fmt.Errorf("%s: fig6 pair: %w", p.spec.name, err)
		}
		v["bench.fig6_ratio"] = hadoopMs / tcpMs
	}
	if !p.spec.hadoop {
		return nil
	}
	before := k.burst()
	empty := []mapred.Split{mapred.NewPairSplit(0, nil)}
	floorMs, directMs, err := interleave(e.n(7), run(runHadoop, empty), run(runHadoop, p.splits))
	if err != nil {
		return fmt.Errorf("%s: idle floor: %w", p.spec.name, err)
	}
	or, served := r.(*openRunner)
	var boots []float64
	for i := 0; served && i < e.n(5); i++ {
		t0 := time.Now()
		svc, srv, _, c, err := or.bootService()
		if err != nil {
			return err
		}
		boots = append(boots, ms(time.Since(t0)))
		c.Close()
		svc.Drain(time.Second)
		srv.Close()
	}
	cal := bracket(before, k.burst())
	v["hadoop.idle_floor_ms"] = cal.wall(floorMs)
	if served {
		v["serve.boot_ms"] = cal.wall(median(boots))
		v["serve.overhead_ms"] = off.p50 - cal.wall(directMs)
		or.mu.Lock()
		v["serve.submit_us"] = cal.wall(median(or.submitUs))
		or.mu.Unlock()
	}
	return nil
}

// writeTrace exports the traced run's spans as Chrome trace-event JSON.
func writeTrace(dir, workload string, spans []trace.Span) error {
	data, err := trace.ChromeTrace(spans)
	if err != nil {
		return fmt.Errorf("%s: export trace: %w", workload, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
