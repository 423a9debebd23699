package admin

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// get fetches a path from the server and returns status and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestEndpoints exercises every admin route against a populated registry
// and tracer: /metrics shows counters, /trace.json is a valid Chrome
// trace, /timeline renders the spans, and the pprof handlers answer.
func TestEndpoints(t *testing.T) {
	met := metrics.NewRegistry()
	met.Counter("rpc.calls.heartbeat").Add(42)
	tr := trace.New("jobtracker")
	root := tr.StartRoot("job", trace.KindJob)
	task := tr.StartChild(root.Context(), "m0", trace.KindTask)
	task.End()
	root.End()

	s, err := New("127.0.0.1:0", obs.Telemetry{Metrics: met, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "rpc.calls.heartbeat") {
		t.Errorf("/metrics = %d %q, want counter in body", code, body)
	}

	code, body = get(t, s, "/trace.json")
	if code != http.StatusOK {
		t.Fatalf("/trace.json = %d", code)
	}
	st, err := trace.ValidateChrome([]byte(body))
	if err != nil {
		t.Fatalf("/trace.json body does not validate: %v", err)
	}
	if st.Spans != 2 {
		t.Errorf("/trace.json has %d spans, want 2", st.Spans)
	}

	code, body = get(t, s, "/timeline")
	if code != http.StatusOK || !strings.Contains(body, "m0") {
		t.Errorf("/timeline = %d, body missing span row:\n%s", code, body)
	}

	code, body = get(t, s, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want index with goroutine profile", code)
	}
	code, _ = get(t, s, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestNilBackends: a server over nil registry and tracer must serve empty
// content, not panic — both backends are nil-safe by contract.
func TestNilBackends(t *testing.T) {
	s, err := New("127.0.0.1:0", obs.Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := get(t, s, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on nil registry = %d", code)
	}
	code, body := get(t, s, "/trace.json")
	if code != http.StatusOK {
		t.Errorf("/trace.json on nil tracer = %d", code)
	}
	if !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace.json on nil tracer is not a trace-event document: %q", body)
	}
	if code, _ := get(t, s, "/timeline"); code != http.StatusOK {
		t.Errorf("/timeline on nil tracer = %d", code)
	}
}

// TestCloseIdempotent: Close twice is fine, and the port stops answering.
func TestCloseIdempotent(t *testing.T) {
	s, err := New("127.0.0.1:0", obs.Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
}
