package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/serve"
)

// get fetches one admin page and returns status code and body.
func get(t *testing.T, url string) (int, string) {
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

// TestDaemonServesAndDrains boots the daemon on ephemeral ports, runs one
// WordCount submitted over RPC, reads its admin pages, and stops it.
// /metrics.prom must carry a family for each service series — submission,
// completion, failure and rejection counts, the running and queued levels
// and job latency — so successive scrapes give their history.
func TestDaemonServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		err := runDaemon("127.0.0.1:0", "127.0.0.1:0", 2, 4, 2, 10*time.Second, stop, pw)
		pw.Close()
		errc <- err
	}()
	t.Cleanup(func() {
		select {
		case stop <- syscall.SIGTERM:
		default:
		}
	})
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	next := func() string {
		t.Helper()
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited early: %v", <-errc)
			}
			return l
		case <-time.After(10 * time.Second):
			t.Fatal("daemon printed nothing for 10s")
		}
		return ""
	}
	// after returns the first field following marker in line.
	after := func(line, marker string) string {
		t.Helper()
		_, rest, ok := strings.Cut(line, marker)
		if !ok {
			t.Fatalf("line %q lacks %q", line, marker)
		}
		return strings.Fields(rest)[0]
	}
	rpcAddr := after(next(), " on ")
	base := "http://" + after(next(), "http://")

	c, err := serve.DialService(rpcAddr, hadooprpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit("alice", "wordcount", map[string]int64{"bytes": 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Wait(id); err != nil || !res.OK {
		t.Fatalf("wordcount: %+v, %v", res, err)
	}

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok\n") ||
		!strings.Contains(body, "saturation   ok") || !strings.Contains(body, "draining     ok") {
		t.Fatalf("/healthz = %d, want 200 with both checks passing\n%s", code, body)
	}
	if code, body = get(t, base+"/jobs"); code != http.StatusOK ||
		!strings.Contains(body, strconv.FormatInt(id, 10)) || !strings.Contains(body, "alice") {
		t.Fatalf("/jobs = %d, want job %d listed\n%s", code, id, body)
	}
	code, body = get(t, base+"/metrics.prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics.prom = %d", code)
	}
	if err := obs.LintProm([]byte(body)); err != nil {
		t.Fatalf("/metrics.prom fails lint: %v\n%s", err, body)
	}
	for _, name := range []string{
		"serve.submitted", "serve.done", "serve.failed", "serve.rejected",
		"serve.rejected_draining", "serve.drains",
		"serve.running", "serve.queued", "serve.job_latency",
	} {
		if fam := obs.PromName("mpid", name); !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("/metrics.prom has no %s family\n%s", fam, body)
		}
	}
	if code, _ = get(t, base+"/series"); code != http.StatusNotFound {
		t.Errorf("/series = %d, want 404", code)
	}

	stop <- syscall.SIGTERM
	for l := next(); !strings.Contains(l, "drained cleanly"); l = next() {
		if strings.Contains(l, "drain incomplete") {
			t.Fatal(l)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
