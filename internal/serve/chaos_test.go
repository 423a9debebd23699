package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/mapred"
)

// Chaos tests for the probe-driven recovery path — the hadoop engine's: it
// is the one with tasktrackers to kill and probe. The heartbeat-timeout
// sweep is disabled throughout (TrackerTimeout < 0), so the active prober
// is the ONLY detector — if these pass, probe verdicts alone drive the
// engine's re-execution machinery, and drive it exactly once per real
// death.

// chaosWC is a WordCount big and slow enough to still be mid-map when the
// prober delivers its verdict: ~48 maps, 2 ms each.
func chaosWC(t *testing.T) (mapred.Job, []mapred.Split) {
	t.Helper()
	job, splits, err := WordCount(map[string]int64{"bytes": 96 << 10, "split": 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	inner := job.Mapper
	job.Mapper = mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		time.Sleep(2 * time.Millisecond)
		return inner.Map(k, v, emit)
	})
	return job, splits
}

// chaosCluster is the engine template: three trackers, sweep disabled,
// retries sized for an in-test cluster.
func chaosCluster(inj *faults.Injector) hadoop.Config {
	return hadoop.Config{
		NumTrackers:    3,
		TrackerTimeout: -1, // probe or nothing
		Injector:       inj,
		RPC: hadooprpc.Options{
			MaxAttempts: 3,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		},
	}
}

// cleanDigest runs the job fault-free and returns the reference digest.
func cleanDigest(t *testing.T) []byte {
	t.Helper()
	s := New(Config{Engine: "hadoop", Cluster: chaosCluster(nil), Probe: ProbeConfig{Interval: time.Millisecond, Timeout: 250 * time.Millisecond, DeadAfter: 3}})
	job, splits := chaosWC(t)
	j, err := s.Submit("ref", "wc", job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.Result.MaxTaskExecutions != 1 {
		t.Fatalf("fault-free MaxTaskExecutions = %d, want 1", j.Result.MaxTaskExecutions)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return OutputDigest(j.Result)
}

// TestChaosProbeDetectedTrackerKill crashes tracker 1's jetty (shuffle
// server and probe surface both — the data path is what dies) mid-map
// while the heartbeat path stays alive, so only the prober can see it. The
// job must finish with byte-identical output via exactly one probe
// verdict's worth of re-execution.
func TestChaosProbeDetectedTrackerKill(t *testing.T) {
	want := cleanDigest(t)

	inj := faults.New(7, faults.Rule{
		Component: "hadoop.tracker1.jetty",
		After:     8, // let a few maps publish and pings answer first
		Action:    faults.Crash,
	})
	s := New(Config{
		Engine:  "hadoop",
		Cluster: chaosCluster(inj),
		Probe:   ProbeConfig{Interval: time.Millisecond, Timeout: 250 * time.Millisecond, DeadAfter: 3},
	})
	job, splits := chaosWC(t)
	j, err := s.Submit("chaos", "wc", job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("job under jetty kill: %v", err)
	}
	if !inj.Crashed("hadoop.tracker1.jetty") {
		t.Fatal("tracker 1's jetty never crashed — injection point not reached")
	}

	if got := OutputDigest(j.Result); !bytes.Equal(got, want) {
		t.Fatal("output after probe-detected kill differs from fault-free run")
	}
	// The prober, not the (disabled) sweep, delivered the loss — once.
	if got := s.Telemetry().Metrics.Counter("hadoop.trackers_probe_lost").Value(); got != 1 {
		t.Fatalf("trackers_probe_lost = %d, want exactly 1", got)
	}
	if got := s.Telemetry().Metrics.Counter("probe.verdicts").Value(); got != 1 {
		t.Fatalf("probe.verdicts = %d, want exactly 1", got)
	}
	// Recovery re-executed the dead tracker's work, and within bounds: one
	// loss re-queues each affected task at most once.
	if j.Result.MaxTaskExecutions < 2 {
		t.Fatalf("MaxTaskExecutions = %d, want >= 2 (re-execution after verdict)", j.Result.MaxTaskExecutions)
	}
	if j.Result.MaxTaskExecutions > 3 {
		t.Fatalf("MaxTaskExecutions = %d — unbounded re-execution after a single loss", j.Result.MaxTaskExecutions)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestChaosProbeFlappingNoSpuriousReexecution drops every second probe to
// tracker 1 for the whole job: heavy flapping, but never DeadAfter losses
// in a row. A flapping network must cause zero verdicts, zero speculative
// re-execution, and identical output.
func TestChaosProbeFlappingNoSpuriousReexecution(t *testing.T) {
	want := cleanDigest(t)

	inj := faults.New(7, faults.Rule{
		Component: "hadoop.tracker1.jetty",
		Operation: "ping",
		Every:     2,
		Action:    faults.Fail,
	})
	s := New(Config{
		Engine:  "hadoop",
		Cluster: chaosCluster(inj),
		Probe:   ProbeConfig{Interval: time.Millisecond, Timeout: 250 * time.Millisecond, DeadAfter: 3},
	})
	job, splits := chaosWC(t)
	j, err := s.Submit("flap", "wc", job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("job under probe flapping: %v", err)
	}

	// The flapping was real...
	if inj.Count("hadoop.tracker1.jetty", "ping") == 0 {
		t.Fatal("no pings reached the flapping tracker")
	}
	if s.Telemetry().Metrics.Counter("probe.lost").Value() == 0 {
		t.Fatal("no probe losses recorded — the flap never happened")
	}
	// ...and changed nothing.
	if got := s.Telemetry().Metrics.Counter("probe.verdicts").Value(); got != 0 {
		t.Fatalf("probe.verdicts = %d, want 0 under sub-threshold flapping", got)
	}
	if got := s.Telemetry().Metrics.Counter("hadoop.trackers_probe_lost").Value(); got != 0 {
		t.Fatalf("trackers_probe_lost = %d, want 0", got)
	}
	if j.Result.MaxTaskExecutions != 1 {
		t.Fatalf("MaxTaskExecutions = %d, want 1 (no speculative re-execution)", j.Result.MaxTaskExecutions)
	}
	if got := OutputDigest(j.Result); !bytes.Equal(got, want) {
		t.Fatal("output under flapping differs from fault-free run")
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
