// Package engine is the one contract a MapReduce job in this repository runs
// through, and its two implementations: the MPI-D runtime (internal/mapred
// over an internal/mpi world — the paper's proposal) and the mini-Hadoop
// cluster (internal/hadoop — the paper's baseline). mpid-job, the live
// figures and the workload suite hold an Engine and never name either
// runtime's own entry points, so which stack serves a job is one value chosen
// at construction; the job service holds an MPID.
package engine

import (
	"context"
	"fmt"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/obs"
)

// Engine runs one job to completion. Once ctx is done the job stops and the
// error satisfies errors.Is with the context's error. The report is the
// hadoop jobtracker's (nil from MPI-D, which has no jobtracker); it is
// returned for failed jobs too.
//
// Every member of tel is optional, and an engine ignores what it has nothing
// to report to: MPI-D reports mpid.* timers and spill/realign/merge spans and
// emits no events; the hadoop engine reports hadoop.*, rpc.*, shuffle.* and
// task.* metrics, its jobtracker's and trackers' spans and its
// flight-recorder events.
type Engine interface {
	Run(ctx context.Context, job mapred.Job, splits []mapred.Split, tel obs.Telemetry) (*mapred.Result, *hadoop.JobReport, error)
}

// MPID runs each job on a world of its own: 1 master + job.NumReducers
// reducer + Mappers mapper ranks.
type MPID struct {
	// Mappers is the mapper rank count (default 2, as hadoop.Config's
	// NumTrackers).
	Mappers int
	// NewWorld builds the world; nil means in-process (mpi.NewWorld).
	NewWorld func(n int) (*mpi.World, error)
}

// Run implements Engine.
func (e MPID) Run(ctx context.Context, job mapred.Job, splits []mapred.Split, tel obs.Telemetry) (*mapred.Result, *hadoop.JobReport, error) {
	if e.Mappers <= 0 {
		e.Mappers = 2
	}
	res, err := mapred.RunContext(ctx, job, splits, mapred.Exec{
		Mappers: e.Mappers, NewWorld: e.NewWorld, Telemetry: tel,
	})
	return res, nil, err
}

// Hadoop boots a mini-cluster per job from the Config template. The job's
// telemetry replaces the template's.
type Hadoop struct {
	Config hadoop.Config
}

// Run implements Engine.
func (e Hadoop) Run(ctx context.Context, job mapred.Job, splits []mapred.Split, tel obs.Telemetry) (*mapred.Result, *hadoop.JobReport, error) {
	cfg := e.Config
	cfg.Telemetry = tel
	return hadoop.RunWithReportContext(ctx, job, splits, cfg)
}

// New selects an engine by name — "mpid" (also the empty name) or "hadoop"
// — sized by one number, cluster.NumTrackers: mapper ranks on MPI-D,
// tasktrackers on hadoop. The rest of cluster configures the hadoop engine
// only.
func New(name string, cluster hadoop.Config) (Engine, error) {
	switch name {
	case "", "mpid":
		return MPID{Mappers: cluster.NumTrackers}, nil
	case "hadoop":
		return Hadoop{Config: cluster}, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (want mpid or hadoop)", name)
}
