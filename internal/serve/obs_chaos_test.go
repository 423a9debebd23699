package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/obs"
)

// httpGet fetches one admin page and returns status code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestChaosFlightRecorderAndHealth is the observability half of the
// probe-detected tracker-kill chaos scenario: the same jetty crash as
// TestChaosProbeDetectedTrackerKill, watched through the flight recorder
// and /healthz instead of counters. It asserts the recorded causal chain —
// probe verdict, then the attempts lost to it, then their re-execution —
// with every attempt event cross-linked to a real trace span, and that
// /healthz flips unhealthy while the dead tracker's verdict is latched and
// recovers once the job ends.
func TestChaosFlightRecorderAndHealth(t *testing.T) {
	want := cleanDigest(t)

	inj := faults.New(7, faults.Rule{
		Component: "hadoop.tracker1.jetty",
		After:     8,
		Action:    faults.Crash,
	})
	s := New(Config{
		Engine:  "hadoop",
		Cluster: chaosCluster(inj),
		Probe:   ProbeConfig{Interval: time.Millisecond, Timeout: 250 * time.Millisecond, DeadAfter: 3},
	})
	rec := s.Telemetry().Events
	adm, err := admin.New("127.0.0.1:0", s.Telemetry(), admin.HealthPage(s.Health()))
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + adm.Addr()

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before chaos: %d\n%s", code, body)
	}

	job, splits := chaosWC(t)
	j, err := s.Submit("chaos", "wc", job, splits)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		j.Wait(context.Background())
	}()

	// Poll /healthz while the job runs. The verdict latches until the job
	// ends, so any poll that lands between the verdict and completion must
	// see 503 — and recovery takes many re-executed 2 ms map tasks, so
	// several polls land there.
	sawUnhealthy := false
	running := true
	for running {
		select {
		case <-done:
			running = false
		default:
			if len(rec.OfType(obs.EvProbeVerdict)) > 0 {
				if code, body := httpGet(t, base+"/healthz"); code == http.StatusServiceUnavailable {
					sawUnhealthy = true
					if !bytes.Contains([]byte(body), []byte("probe")) {
						t.Fatalf("unhealthy /healthz body names no probe check:\n%s", body)
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if j.Err != nil {
		t.Fatalf("job under jetty kill: %v", j.Err)
	}
	if !inj.Crashed("hadoop.tracker1.jetty") {
		t.Fatal("tracker 1's jetty never crashed — injection point not reached")
	}
	if got := OutputDigest(j.Result); !bytes.Equal(got, want) {
		t.Fatal("output after probe-detected kill differs from fault-free run")
	}
	if !sawUnhealthy {
		t.Fatal("/healthz never flipped unhealthy while the dead verdict was latched")
	}
	// The verdict cleared with the job: /healthz recovers.
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after job end: %d, want 200 (recovered)\n%s", code, body)
	}

	// The recorded causal chain: exactly one verdict, then attempts lost to
	// it, then re-scheduled attempts (execution >= 2) — strictly Seq-ordered.
	verdicts := rec.OfType(obs.EvProbeVerdict)
	if len(verdicts) != 1 {
		t.Fatalf("probe.verdict events = %d, want exactly 1\n%s", len(verdicts), obs.RenderEvents(rec.Events()))
	}
	lost := rec.OfType(obs.EvAttemptLost)
	if len(lost) == 0 {
		t.Fatalf("no attempt.lost events after the verdict\n%s", obs.RenderEvents(rec.Events()))
	}
	var resched []obs.Event
	for _, e := range rec.OfType(obs.EvAttemptScheduled) {
		if e.Attempt >= 2 {
			resched = append(resched, e)
		}
	}
	if len(resched) == 0 {
		t.Fatalf("no re-execution attempt.scheduled events\n%s", obs.RenderEvents(rec.Events()))
	}
	v := verdicts[0]
	for _, e := range lost {
		if e.Seq <= v.Seq {
			t.Fatalf("attempt.lost seq %d precedes verdict seq %d", e.Seq, v.Seq)
		}
	}
	minLost := lost[0].Seq
	rescheduledAfterLoss := false
	for _, e := range resched {
		if e.Seq > minLost {
			rescheduledAfterLoss = true
		}
	}
	if !rescheduledAfterLoss {
		t.Fatalf("no re-scheduled attempt after the first loss\n%s", obs.RenderEvents(rec.Events()))
	}

	// Cross-links: every attempt event's span id names a real finished span
	// in the service tracer, and every event carries the job identity the
	// child recorder stamped.
	spanIDs := make(map[uint64]bool)
	for _, sp := range s.Telemetry().Tracer.Spans() {
		spanIDs[sp.ID] = true
	}
	for _, e := range append(append([]obs.Event(nil), lost...), resched...) {
		if e.Span == 0 {
			t.Fatalf("attempt event without span id: %+v", e)
		}
		if !spanIDs[e.Span] {
			t.Fatalf("event span %d not found among %d trace spans: %+v", e.Span, len(spanIDs), e)
		}
		if e.Job != j.ID || e.Tenant != "chaos" {
			t.Fatalf("event missing job identity stamp: %+v", e)
		}
	}

	// The /events page shows the same chain.
	if code, body := httpGet(t, base+"/events"); code != http.StatusOK ||
		!bytes.Contains([]byte(body), []byte("probe.verdict")) ||
		!bytes.Contains([]byte(body), []byte("attempt.lost")) {
		t.Fatalf("/events page (%d) missing chaos chain:\n%s", code, body)
	}

	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
