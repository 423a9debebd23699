package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/shuffle"
	"github.com/ict-repro/mpid/internal/trace"
)

// The ladder times each layer's public calls directly, on the workload's own
// map-output pairs where the layer moves pairs, so that a change in a job's
// latency can be set against the rung below it. Every rung does a fixed
// amount of work, 0.1-0.4 s at the driver's run length; a shorter run (the
// smoke test) scales the iteration counts down with its segment length.
// Values are raw here; ladder() calibrates them with the bursts around the
// whole pass.

const (
	rttBytes    = 1 << 10
	streamBytes = 256 << 10
	ladderRuns  = 16 // sorted runs fed to the merger: above the default fan-in of 10, so a background pass runs
	rpcSmall    = 64
	rpcBulk     = 1 << 20
	fetchBulk   = 4 << 20
)

// effort is the share of the full iteration counts a run does: 1 at the
// driver's segment length.
type effort float64

func effortOf(segment time.Duration) effort {
	return effort(min(1, float64(segment)/float64(defaultSeconds*time.Second/windowSegments)))
}

// n scales a full iteration count, never below 2.
func (e effort) n(full int) int { return max(2, int(float64(full)*float64(e))) }

// pingPong bounces a 1 KiB message between two ranks and returns the mean
// round trip and the heap allocations per round trip.
func pingPong(w *mpi.World, iters int) (rtt time.Duration, allocs float64, err error) {
	defer w.Close()
	var elapsed time.Duration
	var mallocs uint64
	err = mpi.RunOn(w, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		buf := make([]byte, rttBytes)
		var m0 runtime.MemStats
		var t0 time.Time
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
			data, _, err := c.Recv(peer, 1)
			if err != nil {
				return err
			}
			buf = data
			if c.Rank() == 1 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(t0)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		}
		return nil
	})
	return elapsed / time.Duration(iters), float64(mallocs) / float64(iters), err
}

// stream pushes count 256 KiB messages one way on a transport that
// copies payloads and returns MB/s, timed until the receiver's acknowledgement.
func stream(w *mpi.World, count int) (mbPerS float64, err error) {
	defer w.Close()
	var elapsed time.Duration
	err = mpi.RunOn(w, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			buf := make([]byte, streamBytes)
			t0 := time.Now()
			for i := 0; i < count; i++ {
				if err := c.Send(1, 1, buf); err != nil {
					return err
				}
			}
			_, _, err := c.Recv(1, 2)
			elapsed = time.Since(t0)
			return err
		}
		pool := c.RecvBufferPool()
		for i := 0; i < count; i++ {
			data, _, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			pool.Put(data)
		}
		return c.Send(0, 2, nil)
	})
	return float64(streamBytes) * float64(count) / 1e6 / elapsed.Seconds(), err
}

func ladderMPI(e effort, out map[string]float64) error {
	rtt, _, err := pingPong(mpi.NewWorld(2), e.n(2000))
	if err != nil {
		return fmt.Errorf("chan rtt: %w", err)
	}
	out["mpi.chan_rtt_us"] = float64(rtt) / 1e3
	if rtt, _, err = pingPong(mpi.NewRingWorld(2), e.n(2000)); err != nil {
		return fmt.Errorf("ring rtt: %w", err)
	}
	out["mpi.ring_rtt_us"] = float64(rtt) / 1e3

	w, err := newTCPWorld(2)
	if err != nil {
		return err
	}
	rtt, allocs, err := pingPong(w, e.n(2000))
	if err != nil {
		return fmt.Errorf("tcp rtt: %w", err)
	}
	out["mpi.tcp_rtt_us"] = float64(rtt) / 1e3
	out["mpi.allocs_per_rtt"] = allocs

	if w, err = newTCPWorld(2); err != nil {
		return err
	}
	if out["mpi.tcp_stream_mb_s"], err = stream(w, e.n(400)); err != nil {
		return fmt.Errorf("tcp stream: %w", err)
	}
	out["mpi.ringcopy_stream_mb_s"], err = stream(mpi.NewRingWorldConfig(2, mpi.RingConfig{CopyPayloads: true}), e.n(400))
	if err != nil {
		return fmt.Errorf("ring stream: %w", err)
	}

	// The world a job builds: 1 master + reducers + mappers. Connections
	// are dialled on first use, so a barrier is part of setting it up.
	var setups []float64
	for i := 0; i < e.n(9); i++ {
		t0 := time.Now()
		w, err := newTCPWorld(1 + nReducers + nMappers)
		if err != nil {
			return err
		}
		err = mpi.RunOn(w, func(c *mpi.Comm) error { return c.Barrier() })
		w.Close()
		if err != nil {
			return fmt.Errorf("tcp world barrier: %w", err)
		}
		setups = append(setups, ms(time.Since(t0)))
	}
	out["mpi.tcp_world_setup_ms"] = median(setups)
	return nil
}

// ladderCore drives core.D directly: one sender rank Sends the workload's
// pairs to one reducer rank, which drains them only after the sender has
// finalized, so send and receive are timed apart.
func ladderCore(pairs []kv.Pair, combiner core.CombineFunc, out map[string]float64) error {
	sent := make(chan struct{})
	var sendD, recvD time.Duration
	var recvBytes int
	err := mpi.RunOn(mpi.NewWorld(2), func(c *mpi.Comm) error {
		d, err := core.Init(core.Config{Comm: c, Reducers: []int{1}, Senders: []int{0}, Combiner: combiner})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			t0 := time.Now()
			for _, p := range pairs {
				if err := d.Send(p.Key, p.Value); err != nil {
					return err
				}
			}
			err := d.Finalize()
			sendD = time.Since(t0)
			close(sent)
			return err
		}
		<-sent
		t0 := time.Now()
		for {
			key, values, err := d.Recv()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			recvBytes += len(key)
			for _, v := range values {
				recvBytes += len(v)
			}
		}
		recvD = time.Since(t0)
		return d.Finalize()
	})
	if err != nil {
		return fmt.Errorf("core send/recv: %w", err)
	}
	out["core.send_mpairs_s"] = float64(len(pairs)) / 1e6 / sendD.Seconds()
	out["core.recv_mb_s"] = float64(recvBytes) / 1e6 / recvD.Seconds()
	return nil
}

// sortedRuns deals the pairs round-robin into ladderRuns runs and frames
// each as a sorted run of key lists, the segment format both engines merge.
func sortedRuns(pairs []kv.Pair) [][]byte {
	runs := make([][]byte, ladderRuns)
	for r := range runs {
		var mine []kv.Pair
		for i := r; i < len(pairs); i += ladderRuns {
			mine = append(mine, pairs[i])
		}
		sort.SliceStable(mine, func(i, j int) bool { return kv.Compare(mine[i].Key, mine[j].Key) < 0 })
		for i := 0; i < len(mine); {
			kl := kv.KeyList{Key: mine[i].Key}
			for ; i < len(mine) && bytes.Equal(mine[i].Key, kl.Key); i++ {
				kl.Values = append(kl.Values, mine[i].Value)
			}
			runs[r] = kv.AppendKeyList(runs[r], kl)
		}
	}
	return runs
}

func ladderShuffleKV(pairs []kv.Pair, out map[string]float64) error {
	runs := sortedRuns(pairs)
	var total int
	for _, r := range runs {
		total += len(r)
	}

	t0 := time.Now()
	for _, r := range runs {
		if _, err := shuffle.ValidateRun(r); err != nil {
			return fmt.Errorf("validate: %w", err)
		}
	}
	out["shuffle.validate_mb_s"] = float64(total) / 1e6 / time.Since(t0).Seconds()

	m := shuffle.NewMerger(shuffle.Config{Expected: len(runs)})
	t0 = time.Now()
	for i, r := range runs {
		m.Add(i, bytes.Clone(r)) // the merger takes ownership
	}
	if err := m.Merge(func(kv.KeyList) error { return nil }); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	out["shuffle.merge_mb_s"] = float64(total) / 1e6 / time.Since(t0).Seconds()
	out["shuffle.merge_passes"] = float64(m.Stats().Passes)

	var size int
	for _, p := range pairs {
		size += kv.PairSize(p)
	}
	buf := make([]byte, 0, size)
	t0 = time.Now()
	for _, p := range pairs {
		buf = kv.AppendPair(buf, p)
	}
	out["kv.append_pair_mb_s"] = float64(len(buf)) / 1e6 / time.Since(t0).Seconds()
	t0 = time.Now()
	for rest := buf; len(rest) > 0; {
		_, n, err := kv.ReadPair(rest)
		if err != nil {
			return fmt.Errorf("read pair: %w", err)
		}
		rest = rest[n:]
	}
	out["kv.read_pair_mb_s"] = float64(len(buf)) / 1e6 / time.Since(t0).Seconds()
	return nil
}

func ladderRPC(e effort, out map[string]float64) error {
	srv := hadooprpc.NewServer()
	srv.Register(hadooprpc.NewEchoProtocol())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := hadooprpc.Dial(addr, hadooprpc.EchoProtocolName, hadooprpc.EchoProtocolVersion)
	if err != nil {
		return err
	}
	defer c.Close()
	echo := func(size, iters int) (time.Duration, error) {
		payload := make([]byte, size)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := c.Call("recv", payload); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(iters), nil
	}
	small, err := echo(rpcSmall, e.n(2000))
	if err != nil {
		return fmt.Errorf("rpc call: %w", err)
	}
	bulk, err := echo(rpcBulk, e.n(60))
	if err != nil {
		return fmt.Errorf("rpc bulk: %w", err)
	}
	out["hadooprpc.call_us"] = float64(small) / 1e3
	out["hadooprpc.bulk_mb_s"] = rpcBulk / 1e6 / bulk.Seconds()
	return nil
}

func ladderJetty(e effort, out map[string]float64) error {
	store := jetty.NewStore()
	small := jetty.OutputKey{Job: "ladder", Map: 0, Reduce: 0}
	bulk := jetty.OutputKey{Job: "ladder", Map: 1, Reduce: 0}
	store.Put(small, make([]byte, rpcSmall))
	store.Put(bulk, make([]byte, fetchBulk))
	srv := jetty.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c := jetty.NewClient()
	defer c.Close()
	fetch := func(key jetty.OutputKey, iters int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := c.FetchMapOutput(addr, key); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(iters), nil
	}
	d, err := fetch(small, e.n(1000))
	if err != nil {
		return fmt.Errorf("jetty small fetch: %w", err)
	}
	out["jetty.fetch_small_us"] = float64(d) / 1e3
	if d, err = fetch(bulk, e.n(40)); err != nil {
		return fmt.Errorf("jetty bulk fetch: %w", err)
	}
	out["jetty.fetch_mb_s"] = fetchBulk / 1e6 / d.Seconds()
	return nil
}

func ladderTelemetry(e effort, out map[string]float64) {
	ops := e.n(200_000)
	perOp := func(op func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			op(i)
		}
		return float64(time.Since(t0)) / float64(ops)
	}
	timer := metrics.NewRegistry().Timer("ladder")
	out["metrics.observe_ns"] = perOp(func(i int) { timer.Observe(float64(i)) })
	tr := trace.New("ladder")
	out["trace.span_ns"] = perOp(func(i int) {
		tr.StartRoot("span", trace.KindTask).End()
		if i%1024 == 0 {
			tr.Drain() // as a tracker does on each heartbeat; keeps the collector small
		}
	})
	rec := obs.NewRecorder(obs.DefaultEventCap)
	out["obs.emit_ns"] = perOp(func(i int) { rec.Emit(obs.Event{Type: obs.EvSpill, Attempt: i}) })
}

// ladderPairs is how many of the workload's map-output pairs the pair-moving
// rungs run on.
const ladderPairs = 200_000

// ladder runs every rung between two bursts and returns calibrated values.
func ladder(k *kernel, p *prepared, e effort) (map[string]float64, error) {
	pairs, err := mapOutput(p, e.n(ladderPairs))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	before := k.burst()
	err = errors.Join(
		ladderMPI(e, out),
		ladderCore(pairs, p.job.Combiner, out),
		ladderShuffleKV(pairs, out),
		ladderRPC(e, out),
		ladderJetty(e, out),
	)
	ladderTelemetry(e, out)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	cal := bracket(before, k.burst())
	for name, v := range out {
		switch metricUnit(name) {
		case "us", "ms", "ns":
			out[name] = cal.wall(v)
		case "MB/s", "Mpairs/s":
			out[name] = v * cal.wallMs / calibNominalMs
		}
	}
	return out, nil
}

// mapOutput replays the workload's mapper over its splits and keeps the
// first n emitted pairs.
func mapOutput(p *prepared, n int) ([]kv.Pair, error) {
	var pairs []kv.Pair
	emit := func(key, value []byte) error {
		if len(pairs) >= n {
			return io.EOF
		}
		pairs = append(pairs, kv.Pair{Key: key, Value: value}.Clone())
		return nil
	}
	for _, s := range p.splits {
		err := s.Records(func(k, v []byte) error { return p.job.Mapper.Map(k, v, emit) })
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: map output: %w", p.spec.name, err)
		}
	}
	return pairs, nil
}
