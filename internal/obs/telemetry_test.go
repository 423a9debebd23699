package obs

import (
	"testing"

	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// TestTelemetryChild checks a job scope: the child's counters and events
// fold into the parent's, its events carry the job and tenant, and its
// spans go to a tracer of its own on the "mpid" lane.
func TestTelemetryChild(t *testing.T) {
	parent := Telemetry{Metrics: metrics.NewRegistry(), Tracer: trace.New("serve"), Events: NewRecorder(0)}
	a, b := parent.Child(1, "alice"), parent.Child(2, "bob")
	a.Metrics.Counter("jobs").Inc()
	b.Metrics.Counter("jobs").Add(2)
	a.Events.Emit(Event{Type: EvSpill})
	a.Tracer.StartRoot("job", trace.KindJob).End()

	if got := parent.Metrics.Counter("jobs").Value(); got != 3 {
		t.Errorf("parent counter = %d, want 3", got)
	}
	if got := b.Metrics.Counter("jobs").Value(); got != 2 {
		t.Errorf("child counter = %d, want 2 (no bleed from a sibling)", got)
	}
	ev := parent.Events.Events()
	if len(ev) != 1 || ev[0].Job != 1 || ev[0].Tenant != "alice" {
		t.Errorf("parent events = %+v, want one stamped job 1 / alice", ev)
	}
	if a.Tracer == parent.Tracer || a.Tracer == b.Tracer || a.Tracer.Proc() != "mpid" {
		t.Errorf("child tracer is shared or on lane %q", a.Tracer.Proc())
	}
	if parent.Tracer.Len() != 0 || b.Tracer.Len() != 0 || a.Tracer.Len() != 1 {
		t.Errorf("span landed outside its own job's tracer")
	}
}

// TestTelemetryZeroValue: the zero value observes nothing and its child is
// a usable, parentless job scope.
func TestTelemetryZeroValue(t *testing.T) {
	var zero Telemetry
	zero.Metrics.Counter("x").Inc()
	zero.Tracer.StartRoot("x", trace.KindJob).End()
	zero.Events.Emit(Event{Type: "x"})
	c := zero.Child(7, "carol")
	if c.Metrics == nil || c.Tracer == nil || c.Events == nil {
		t.Fatalf("child of the zero value = %+v, want every member set", c)
	}
	c.Events.Emit(Event{Type: "x"})
	if ev := c.Events.Events(); len(ev) != 1 || ev[0].Job != 7 || ev[0].Tenant != "carol" {
		t.Fatalf("child events = %+v", ev)
	}
}
