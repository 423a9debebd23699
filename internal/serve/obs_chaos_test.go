package serve

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/mapred"
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

// TestChaosFlightRecorderAndHealth watches a job whose mapper panics, run
// beside a healthy one, through the service's flight recorder and health
// report (the /healthz body) rather than through the jobs. Health must flip
// unhealthy while the two jobs fill every slot and queue position and
// recover once they end, since a failed job is no fault of the service.
// Each job must record exactly one admission and then one outcome, stamped
// with its identity. The failure must name the panic on /events. A drain
// must flip health unhealthy for good.
func TestChaosFlightRecorderAndHealth(t *testing.T) {
	release := make(chan struct{})
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	s := New(Config{Slots: 1, QueueDepth: 1, Cluster: testCluster()})
	rec := s.Telemetry().Events
	adm, err := admin.New("127.0.0.1:0", s.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + adm.Addr()

	if ok, report := s.Health(); !ok {
		t.Fatalf("health before chaos: unhealthy\n%s", report)
	}

	bad, badSplits := gatedJob("bad", release, stop)
	bad.Mapper = mapred.MapperFunc(func(_, _ []byte, _ mapred.Emit) error {
		select {
		case <-release:
		case <-stop:
		}
		panic("chaos mapper exploded")
	})
	good, goodSplits := gatedJob("good", release, stop)
	jb, err := s.Submit("chaos", "bad", bad, badSplits)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := s.Submit("alice", "good", good, goodSplits)
	if err != nil {
		t.Fatal(err)
	}

	// One job runs and one waits: admission is at capacity.
	if ok, report := s.Health(); ok || !strings.Contains(report, "saturation   FAIL") {
		t.Fatalf("health at capacity: ok=%v, want unhealthy naming saturation\n%s", ok, report)
	}

	close(release)
	<-jb.Done()
	if jb.Err == nil || !strings.Contains(jb.Err.Error(), "chaos mapper exploded") {
		t.Fatalf("panicked job error = %v, want the panic", jb.Err)
	}
	if err := jg.Wait(context.Background()); err != nil {
		t.Fatalf("job beside the panicked one: %v", err)
	}
	if ok, report := s.Health(); !ok {
		t.Fatalf("health after both jobs ended: unhealthy, want recovered\n%s", report)
	}

	// Each job's recorded chain: one admission, then one outcome, both
	// stamped with the job's id and tenant, strictly Seq-ordered.
	for _, c := range []struct {
		j       *Job
		outcome string
	}{{jb, obs.EvJobFailed}, {jg, obs.EvJobDone}} {
		var admitted, ended []obs.Event
		for _, e := range rec.Events() {
			if e.Job != c.j.ID {
				continue
			}
			if e.Tenant != c.j.Tenant {
				t.Fatalf("job %d event stamped with tenant %q, want %q: %+v", c.j.ID, e.Tenant, c.j.Tenant, e)
			}
			switch e.Type {
			case obs.EvJobAdmitted:
				admitted = append(admitted, e)
			case obs.EvJobDone, obs.EvJobFailed:
				ended = append(ended, e)
			}
		}
		if len(admitted) != 1 || len(ended) != 1 || ended[0].Type != c.outcome {
			t.Fatalf("job %s recorded %d admissions and outcomes %+v, want 1 and one %s\n%s",
				c.j.Name, len(admitted), ended, c.outcome, obs.RenderEvents(rec.Events()))
		}
		if ended[0].Seq <= admitted[0].Seq {
			t.Fatalf("job %s outcome seq %d precedes its admission seq %d", c.j.Name, ended[0].Seq, admitted[0].Seq)
		}
	}

	// The /events page shows the failure with its cause.
	if code, body := httpGet(t, base+"/events"); code != http.StatusOK ||
		!strings.Contains(body, obs.EvJobFailed) || !strings.Contains(body, "chaos mapper exploded") {
		t.Fatalf("/events page (%d) missing the failed job:\n%s", code, body)
	}

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ok, report := s.Health(); ok || !strings.Contains(report, "draining     FAIL") {
		t.Fatalf("health after drain: ok=%v, want unhealthy naming draining\n%s", ok, report)
	}
	if len(rec.OfType(obs.EvServiceDrain)) != 1 {
		t.Fatalf("service.drain events = %d, want 1\n%s", len(rec.OfType(obs.EvServiceDrain)), obs.RenderEvents(rec.Events()))
	}
}
