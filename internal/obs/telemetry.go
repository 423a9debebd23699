package obs

import (
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// Telemetry is what observes a piece of work: the counters and timers, the
// spans and the flight-recorder events, carried as one value from the job
// service down to the sockets. The zero value is valid and observes
// nothing, and each member is nil-safe on its own, so a layer passes the
// value along and uses whichever members it has something to report to.
type Telemetry struct {
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
	Events  *Recorder
}

// Child scopes t to one job: a child registry whose updates also feed t's,
// a fresh span collector on the "mpid" lane (the job service runs MPI-D),
// and a child recorder that stamps the job's id and tenant on every event
// and folds it into t's ring. Concurrent jobs with children of one Telemetry
// never see each other's counters or spans. Nil members of t give
// parentless children.
func (t Telemetry) Child(job int64, tenant string) Telemetry {
	return Telemetry{
		Metrics: t.Metrics.NewChild(),
		Tracer:  trace.New("mpid"),
		Events:  t.Events.NewChild(job, tenant),
	}
}
