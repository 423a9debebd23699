package serve

import (
	"sync"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/jetty"
	"github.com/ict-repro/mpid/internal/metrics"
)

// fakeCC is a scriptable ClusterControl: the prober's verdicts land here
// instead of in a real jobtracker.
type fakeCC struct {
	mu       sync.Mutex
	trackers []hadoop.TrackerState
	marked   []int
}

func (f *fakeCC) Trackers() []hadoop.TrackerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]hadoop.TrackerState(nil), f.trackers...)
}

// MarkLost records the call; like the engine, only the first call for a
// tracker takes effect. The Lost flag deliberately stays false so the
// prober keeps probing — that is how the duplicate-verdict path is
// exercised.
func (f *fakeCC) MarkLost(id int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.marked {
		if m == id {
			f.marked = append(f.marked, id)
			return false
		}
	}
	f.marked = append(f.marked, id)
	return true
}

func (f *fakeCC) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.marked)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestProberVerdictAfterConsecutiveLosses points the prober at a dead port:
// after DeadAfter consecutive losses it must deliver exactly one verdict,
// and keep delivering none while the losses continue.
func TestProberVerdictAfterConsecutiveLosses(t *testing.T) {
	cc := &fakeCC{trackers: []hadoop.TrackerState{{ID: 0, Addr: "127.0.0.1:1"}}}
	met := metrics.NewRegistry()
	p := NewProber(ProbeConfig{Interval: 2 * time.Millisecond, Timeout: 20 * time.Millisecond, DeadAfter: 3}, cc, met, nil)
	p.Start()
	defer p.Stop()

	waitFor(t, 5*time.Second, "dead verdict", func() bool { return cc.calls() >= 1 })
	// The verdict is latched: continued losses must not re-deliver.
	time.Sleep(50 * time.Millisecond)
	if got := cc.calls(); got != 1 {
		t.Fatalf("MarkLost called %d times for one continuous outage, want 1", got)
	}
	st := p.Stats()
	if len(st) != 1 || !st[0].Dead {
		t.Fatalf("Stats() = %+v, want one dead tracker", st)
	}
	if st[0].ConsecLoss < 3 || st[0].LossRate == 0 {
		t.Fatalf("Stats() = %+v, want accumulated losses", st[0])
	}
	if met.Counter("probe.lost").Value() == 0 {
		t.Fatal("probe.lost counter never moved")
	}
}

// TestProberReArmsAfterRecovery scripts an outage, a recovery, and a second
// outage against a real jetty server via the fault injector. The prober
// must deliver a verdict per real transition — two in total — with the
// recovery in between re-arming detection.
func TestProberReArmsAfterRecovery(t *testing.T) {
	inj := faults.New(1,
		// Outage one: pings 1-10 lost.
		faults.Rule{Component: "jetty.server", Operation: "ping", Until: 10},
		// Recovery: pings 11-15 answer. Outage two: ping 16 on lost.
		faults.Rule{Component: "jetty.server", Operation: "ping", After: 15},
	)
	srv := jetty.NewServer(jetty.NewStore())
	srv.Injector = inj
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cc := &fakeCC{trackers: []hadoop.TrackerState{{ID: 7, Addr: addr}}}
	met := metrics.NewRegistry()
	p := NewProber(ProbeConfig{Interval: 2 * time.Millisecond, Timeout: 50 * time.Millisecond, DeadAfter: 3}, cc, met, nil)
	p.Start()
	defer p.Stop()

	waitFor(t, 5*time.Second, "second verdict after re-arm", func() bool { return cc.calls() >= 2 })
	// Both verdicts name the same tracker; only the first took effect.
	cc.mu.Lock()
	first := cc.marked[0]
	cc.mu.Unlock()
	if first != 7 {
		t.Fatalf("verdict for tracker %d, want 7", first)
	}
	if rtt := met.Timer("probe.rtt").Stats().Count; rtt == 0 {
		t.Fatal("no successful probes recorded during the recovery window")
	}
}

// TestProberDisabled is wired at the service layer, but the config knob
// deserves its own check: withDefaults must not resurrect a disabled probe.
func TestProbeConfigDefaults(t *testing.T) {
	c := ProbeConfig{}.withDefaults()
	if c.Interval <= 0 || c.Timeout <= 0 || c.DeadAfter <= 0 {
		t.Fatalf("withDefaults left zero fields: %+v", c)
	}
	d := ProbeConfig{Disable: true}.withDefaults()
	if !d.Disable {
		t.Fatal("withDefaults cleared Disable")
	}
}
