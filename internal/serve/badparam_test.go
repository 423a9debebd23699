package serve

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/workload"
)

// TestBuildRejectsUnknownParam is the regression test for the silent-typo
// bug: Build used to ignore parameter names the workload never reads, so a
// client typo ran a default-configured job with a misleadingly "passing"
// digest. Now the typo is a typed error naming the accepted parameters.
func TestBuildRejectsUnknownParam(t *testing.T) {
	w := NewWorkloads()
	_, _, err := w.Build("wordcount", map[string]int64{"reducer": 4}) // typo: `reducers`
	if err == nil {
		t.Fatal("unknown param accepted")
	}
	if !errors.Is(err, ErrBadParam) {
		t.Fatalf("err = %v, want ErrBadParam", err)
	}
	var bad *BadParamError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %T, want *BadParamError", err)
	}
	if bad.Workload != "wordcount" || bad.Param != "reducer" {
		t.Fatalf("BadParamError = %+v", bad)
	}
	if len(bad.Known) == 0 {
		t.Fatalf("BadParamError carries no known params: %+v", bad)
	}
	// Known params still build.
	if _, _, err := w.Build("wordcount", map[string]int64{"reducers": 2, "bytes": 8 << 10}); err != nil {
		t.Fatalf("known params rejected: %v", err)
	}
}

// TestSuiteRegisteredWorkloadsBuild ensures every suite workload is
// reachable by name from the registry, with its declared defaults.
func TestSuiteRegisteredWorkloadsBuild(t *testing.T) {
	w := NewWorkloads()
	var names []string
	for _, spec := range workload.Suite() {
		names = append(names, spec.Name)
	}
	slices.Sort(names)
	want := []string{"grep", "invindex", "join", "pagerank", "terasort", "wordcount"}
	if !slices.Equal(names, want) {
		t.Fatalf("suite holds %v, want %v", names, want)
	}
	for _, name := range names {
		job, splits, err := w.Build(name, nil)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if job.Mapper == nil || job.Reducer == nil || len(splits) == 0 {
			t.Fatalf("build %s: incomplete job (%d splits)", name, len(splits))
		}
	}
}

func TestBadParamWireCodec(t *testing.T) {
	e := &BadParamError{Workload: "terasort", Param: "record", Known: []string{"records", "reducers"}}
	got, ok := decodeBadParam("remote call failed: " + encodeBadParam(e))
	if !ok {
		t.Fatal("round-trip failed to decode")
	}
	if got.Workload != e.Workload || got.Param != e.Param {
		t.Fatalf("decoded %+v, want %+v", got, e)
	}
	if len(got.Known) != 2 || got.Known[0] != "records" || got.Known[1] != "reducers" {
		t.Fatalf("decoded Known = %v", got.Known)
	}
	if _, ok := decodeBadParam("some unrelated error"); ok {
		t.Fatal("decoded a BadParamError from unrelated text")
	}
}

// TestBadParamRoundTripsRPC submits a typo'd parameter through the real
// wire path and asserts the client gets the typed error back.
func TestBadParamRoundTripsRPC(t *testing.T) {
	onEngine(t, func(t *testing.T) {
		s := New(Config{Cluster: testCluster()})
		defer s.Drain(5 * time.Second)
		c := serveRPC(t, s, NewWorkloads())

		_, err := c.Submit("alice", "terasort", map[string]int64{"record": 100}) // typo: `records`
		if err == nil {
			t.Fatal("typo'd submission accepted over RPC")
		}
		if !errors.Is(err, ErrBadParam) {
			t.Fatalf("remote err = %v, want ErrBadParam", err)
		}
		var bad *BadParamError
		if !errors.As(err, &bad) {
			t.Fatalf("remote err = %T (%v), want *BadParamError", err, err)
		}
		if bad.Workload != "terasort" || bad.Param != "record" {
			t.Fatalf("remote BadParamError = %+v", bad)
		}
		// The service never admitted the job.
		if st := s.Stats(); st.Done != 0 || st.Failed != 0 || st.Queued != 0 {
			t.Fatalf("stats after rejected submit = %+v, want all zero", st)
		}
	})
}

// TestParseParams pins the k=v[,k=v...] syntax mpid-serve -params and
// mpid-job -param share: later values win, an empty string adds nothing,
// and a part that is not key=integer is an error.
func TestParseParams(t *testing.T) {
	p := map[string]int64{"seed": 1}
	for _, s := range []string{"bytes=65536, reducers=2", "", "seed=-3"} {
		if err := ParseParams(p, s); err != nil {
			t.Fatalf("ParseParams(%q): %v", s, err)
		}
	}
	if want := map[string]int64{"bytes": 65536, "reducers": 2, "seed": -3}; !maps.Equal(p, want) {
		t.Fatalf("params = %v, want %v", p, want)
	}
	for _, s := range []string{"bytes", "bytes=1k", "a=1,,b=2"} {
		if err := ParseParams(map[string]int64{}, s); err == nil {
			t.Errorf("ParseParams(%q) accepted", s)
		}
	}
}
