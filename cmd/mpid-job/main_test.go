package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/serve"
	"github.com/ict-repro/mpid/internal/workload"
)

// job runs mpid-job with args and returns its stdout.
func job(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("mpid-job %q: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// smallParams shrinks each suite job to a few milliseconds; a job not
// listed runs with its defaults.
var smallParams = map[string][]string{
	"wordcount": {"bytes=8192", "split=2048"},
	"terasort":  {"records=2000", "splits=4"},
	"invindex":  {"docs=8", "lines=10"},
	"grep":      {"bytes=16384", "split=4096"},
	"join":      {"users=40", "orders=160"},
	"pagerank":  {"vertices=60"},
}

// TestEverySuiteJobSameOnBothEngines runs every workload.Suite name through
// mpid-job on both engines and requires the same listing from each.
func TestEverySuiteJobSameOnBothEngines(t *testing.T) {
	for _, spec := range workload.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			args := []string{"-job", spec.Name, "-mappers", "2"}
			for _, p := range smallParams[spec.Name] {
				args = append(args, "-param", p)
			}
			mpid := job(t, append(args, "-engine", "mpid")...)
			hadoop := job(t, append(args, "-engine", "hadoop")...)
			if mpid == "" {
				t.Fatal("no output")
			}
			if mpid != hadoop {
				t.Errorf("stdout differs between engines: mpid %d bytes, hadoop %d bytes", len(mpid), len(hadoop))
			}
		})
	}
}

// TestUnknownParamIsBadParam: a parameter the job does not declare fails
// with the job service's error.
func TestUnknownParamIsBadParam(t *testing.T) {
	err := run([]string{"-job", "grep", "-param", "needl=3"}, io.Discard, io.Discard)
	if !errors.Is(err, serve.ErrBadParam) {
		t.Fatalf("err = %v, want one matching serve.ErrBadParam", err)
	}
}

// TestInputRefusedForTeraSort: -input feeds lines, and terasort, which
// declares no split parameter, reads fixed-width records.
func TestInputRefusedForTeraSort(t *testing.T) {
	if err := run([]string{"-job", "terasort", "-input", "testdata/corpus.txt"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-job terasort -input accepted")
	}
}

// TestWordCountInputMatchesGolden holds `-job wordcount -input FILE` to the
// listing mpid-job printed when it had its own job table, on both engines.
func TestWordCountInputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wordcount.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"mpid", "hadoop"} {
		if got := job(t, "-job", "wordcount", "-input", "testdata/corpus.txt", "-engine", eng); got != string(want) {
			t.Errorf("-engine %s printed\n%s\nwant testdata/wordcount.golden:\n%s", eng, got, want)
		}
	}
}

// TestInputSkipsGenerator: with -input, the job's own input is never
// generated, so a 64 MiB bytes parameter costs nothing and the listing is
// still the file's.
func TestInputSkipsGenerator(t *testing.T) {
	want, err := os.ReadFile("testdata/wordcount.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = run([]string{"-job", "wordcount", "-input", "testdata/corpus.txt", "-param", "bytes=67108864"}, &stdout, io.Discard)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("printed\n%s\nwant testdata/wordcount.golden:\n%s", stdout.String(), want)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("the run allocated %d B", alloc)
	if alloc >= 8<<20 {
		t.Errorf("the run allocated %d B; a 64 MiB input was generated and not read", alloc)
	}
}

// TestAdminHelpNamesEveryPage: -h's line for -admin names every page the
// admin server mounts, and each page it names answers.
func TestAdminHelpNamesEveryPage(t *testing.T) {
	var help bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	_, line, ok := strings.Cut(help.String(), "-admin")
	if !ok {
		t.Fatalf("-h lists no -admin flag:\n%s", help.String())
	}
	line, _, _ = strings.Cut(line, "\n  -")
	adm, err := admin.New("127.0.0.1:0", obs.Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	for _, page := range []string{"/metrics", "/metrics.prom", "/trace.json", "/timeline", "/events", "/debug/pprof/"} {
		if !strings.Contains(line, " "+page+" ") {
			t.Errorf("-admin's help does not name %s:%s", page, line)
		}
		resp, err := http.Get("http://" + adm.Addr() + page)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", page, resp.StatusCode)
		}
	}
}
