package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"fmt"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
)

// ProbeConfig paces the active liveness prober.
type ProbeConfig struct {
	// Interval is the probe pacing per tracker (default 5 ms here, where a
	// heartbeat is 2 ms; a real cluster would probe at hundreds of ms).
	Interval time.Duration
	// Timeout bounds one probe's round trip (default 4x Interval). A probe
	// that misses it counts as lost even if a response arrives later.
	Timeout time.Duration
	// DeadAfter is the consecutive-loss threshold for a dead verdict
	// (default 5): one dropped probe is noise, DeadAfter in a row is a
	// dead data path. Larger values tolerate flappier networks at the
	// cost of slower detection.
	DeadAfter int
	// Disable turns active probing off; tracker loss then falls back to
	// the engine's heartbeat-timeout sweep alone.
	Disable bool
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 4 * c.Interval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	return c
}

// probeWindow is the rolling sample window per tracker, in probes, over
// which loss rate and latency are kept.
const probeWindow = 32

// probeState is one tracker's rolling probe history.
type probeState struct {
	addr       string
	sent       int
	lost       int
	window     []bool          // ring: true = answered
	rtts       []time.Duration // ring, parallel to window (0 on loss)
	next       int
	consecLoss int
	verdict    bool // dead verdict already delivered
}

// record pushes one probe outcome into the ring.
func (ps *probeState) record(ok bool, rtt time.Duration) {
	ps.sent++
	if !ok {
		ps.lost++
		ps.consecLoss++
	} else {
		ps.consecLoss = 0
	}
	if len(ps.window) < probeWindow {
		ps.window = append(ps.window, ok)
		ps.rtts = append(ps.rtts, rtt)
	} else {
		ps.window[ps.next] = ok
		ps.rtts[ps.next] = rtt
		ps.next = (ps.next + 1) % probeWindow
	}
}

// ProbeStats is one tracker's view for diagnostics.
type ProbeStats struct {
	ID         int
	Addr       string
	Sent       int
	Lost       int
	ConsecLoss int
	LossRate   float64 // over the rolling window
	MeanRTT    time.Duration
	Dead       bool
}

// Prober is the active liveness detector for one running job's cluster: an
// mping-style paced probe loop with per-tracker rolling loss/latency
// windows. Each tick it probes every not-yet-lost tracker's jetty /ping —
// the shuffle data path itself, whose death is exactly what strands map
// outputs — and after DeadAfter consecutive losses delivers a dead verdict
// through hadoop.ClusterControl.MarkLost, putting the tracker's work back
// in the queues without waiting for the heartbeat timeout. Verdicts are
// idempotent on the engine side, so a flapping tracker costs at most one
// re-queue per real transition.
type Prober struct {
	cfg    ProbeConfig
	cc     hadoop.ClusterControl
	met    *metrics.Registry
	ev     *obs.Recorder
	client *jetty.Client

	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	states map[int]*probeState
}

// NewProber builds a prober over a cluster control handle. Metrics (may be
// nil) receives "probe.sent", "probe.lost", "probe.verdicts" counters and
// a "probe.rtt" timer; ev (may be nil) receives an obs.EvProbeVerdict
// flight-recorder event whenever a dead verdict latches, emitted before
// the verdict is delivered to the engine.
func NewProber(cfg ProbeConfig, cc hadoop.ClusterControl, met *metrics.Registry, ev *obs.Recorder) *Prober {
	return &Prober{
		cfg:    cfg.withDefaults(),
		cc:     cc,
		met:    met,
		ev:     ev,
		client: jetty.NewClient(),
		stop:   make(chan struct{}),
		states: make(map[int]*probeState),
	}
}

// Start launches the probe loop.
func (p *Prober) Start() {
	p.wg.Add(1)
	go p.loop()
}

// Stop halts probing and waits for in-flight probes. Idempotent-safe only
// for a single caller; the service calls it once per job.
func (p *Prober) Stop() {
	close(p.stop)
	p.wg.Wait()
	p.client.Close()
}

func (p *Prober) loop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.tick()
		}
	}
}

// tick probes every live tracker once, concurrently, and delivers verdicts.
func (p *Prober) tick() {
	trackers := p.cc.Trackers()
	var wg sync.WaitGroup
	for _, tr := range trackers {
		if tr.Lost {
			continue
		}
		tr := tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.probe(tr)
		}()
	}
	wg.Wait()
}

// probe sends one probe and records the outcome; on crossing the
// consecutive-loss threshold it delivers the dead verdict.
func (p *Prober) probe(tr hadoop.TrackerState) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	rtt, err := p.client.Ping(ctx, tr.Addr)
	cancel()
	ok := err == nil
	p.met.Counter("probe.sent").Inc()
	if ok {
		p.met.Timer("probe.rtt").ObserveDuration(rtt)
	} else {
		p.met.Counter("probe.lost").Inc()
	}

	p.mu.Lock()
	ps, found := p.states[tr.ID]
	if !found {
		ps = &probeState{addr: tr.Addr}
		p.states[tr.ID] = ps
	}
	ps.record(ok, rtt)
	deliver := !ps.verdict && ps.consecLoss >= p.cfg.DeadAfter
	if deliver {
		ps.verdict = true
	}
	if ok && ps.verdict {
		// The tracker answered after a dead verdict (a flap, or a wrong
		// call): re-arm so a real death later is still detected. The
		// engine ignores duplicate MarkLost calls, so re-arming cannot
		// double-requeue.
		ps.verdict = false
	}
	p.mu.Unlock()

	if deliver {
		// Emit the verdict before delivering it: MarkLost synchronously
		// emits the attempt.lost events, so this order keeps the flight
		// recorder causal (verdict, then losses, then re-scheduling).
		p.ev.Emit(obs.Event{Type: obs.EvProbeVerdict,
			Detail: fmt.Sprintf("tracker %d (%s) dead after %d consecutive losses",
				tr.ID, tr.Addr, p.cfg.DeadAfter)})
		if p.cc.MarkLost(tr.ID) {
			p.met.Counter("probe.verdicts").Inc()
		}
	}
}

// DeadCount is how many trackers currently hold a latched dead verdict —
// the /healthz probe check's input. A flapped tracker that answered again
// has re-armed and no longer counts.
func (p *Prober) DeadCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ps := range p.states {
		if ps.verdict {
			n++
		}
	}
	return n
}

// Stats snapshots every probed tracker, ordered by id.
func (p *Prober) Stats() []ProbeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProbeStats, 0, len(p.states))
	for id, ps := range p.states {
		st := ProbeStats{
			ID:         id,
			Addr:       ps.addr,
			Sent:       ps.sent,
			Lost:       ps.lost,
			ConsecLoss: ps.consecLoss,
			Dead:       ps.verdict,
		}
		if n := len(ps.window); n > 0 {
			lost, sum, okCount := 0, time.Duration(0), 0
			for i, ok := range ps.window {
				if !ok {
					lost++
				} else {
					sum += ps.rtts[i]
					okCount++
				}
			}
			st.LossRate = float64(lost) / float64(n)
			if okCount > 0 {
				st.MeanRTT = sum / time.Duration(okCount)
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
