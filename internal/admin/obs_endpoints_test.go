package admin

import (
	"net/http"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// getResp fetches a path and returns the full response (header access).
func getResp(t *testing.T, s *Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, b.String()
}

// TestMetricsPromLints is the format gate for the scrape endpoint: the live
// /metrics.prom body must pass the package's own OpenMetrics lint and carry
// the exposition Content-Type.
func TestMetricsPromLints(t *testing.T) {
	met := metrics.NewRegistry()
	met.Counter("rpc.calls.heartbeat").Add(42)
	met.Counter("serve.submitted").Inc()
	met.Gauge("serve.running").Set(2)
	for i := 1; i <= 50; i++ {
		met.Timer("serve.job_latency").Observe(float64(i) / 100)
	}
	s, err := New("127.0.0.1:0", obs.Telemetry{Metrics: met, Tracer: trace.New("jobtracker")})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, body := getResp(t, s, "/metrics.prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.prom = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	if err := obs.LintProm([]byte(body)); err != nil {
		t.Fatalf("/metrics.prom fails format lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"mpid_rpc_calls_heartbeat_total 42",
		"mpid_serve_running 2",
		"mpid_serve_job_latency_count 50",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics.prom missing %q:\n%s", want, body)
		}
	}
}

// TestObservabilityPages serves a recorder and one caller-mounted extra page
// and exercises /events (with the ring's drop count) and the extra page.
func TestObservabilityPages(t *testing.T) {
	rec := obs.NewRecorder(2)
	rec.Emit(obs.Event{Type: obs.EvJobAdmitted, Job: 1, Tenant: "alice"})
	rec.Emit(obs.Event{Type: obs.EvSpill, Job: 1, Task: "m0"})
	rec.Emit(obs.Event{Type: obs.EvJobDone, Job: 1}) // wraps the 2-cap ring

	extra := Page{Path: "/jobs", Handler: func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("job table\n"))
	}}
	s, err := New("127.0.0.1:0", obs.Telemetry{Metrics: metrics.NewRegistry(), Events: rec}, extra)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, body := getResp(t, s, "/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/events Content-Type = %q", ct)
	}
	if !strings.Contains(body, "spill") || !strings.Contains(body, "job.done") {
		t.Errorf("/events missing retained events:\n%s", body)
	}
	if !strings.Contains(body, "1 older events dropped") {
		t.Errorf("/events missing drop count after ring wrap:\n%s", body)
	}
	if strings.Contains(body, "job.admitted") {
		t.Errorf("/events shows an event the ring dropped:\n%s", body)
	}

	if resp, body = getResp(t, s, "/jobs"); resp.StatusCode != http.StatusOK || body != "job table\n" {
		t.Fatalf("mounted /jobs = %d %q", resp.StatusCode, body)
	}
}

// TestObsPagesNilBackends: the obs pages keep the admin nil-tolerance
// contract — a nil recorder and registry serve empty content.
func TestObsPagesNilBackends(t *testing.T) {
	s, err := New("127.0.0.1:0", obs.Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{"/events", "/metrics.prom"} {
		resp, body := getResp(t, s, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with nil backends = %d\n%s", path, resp.StatusCode, body)
		}
	}
	if err := obs.LintProm([]byte(promBody(t, s))); err != nil {
		t.Errorf("empty /metrics.prom fails lint: %v", err)
	}
}

func promBody(t *testing.T, s *Server) string {
	t.Helper()
	_, body := getResp(t, s, "/metrics.prom")
	return body
}
