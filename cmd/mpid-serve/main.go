// Command mpid-serve runs the MPI-D runtime as a long-lived multi-tenant
// job service: a daemon that accepts WordCount-class job submissions over
// the Hadoop-style RPC wire, schedules them fairly across tenants under
// bounded admission, and drains gracefully on SIGTERM.
//
// Daemon mode (the default):
//
//	mpid-serve -addr 127.0.0.1:9070 -admin 127.0.0.1:9071
//	mpid-serve -trackers 3 -slots 8
//
// Each job runs on an in-process MPI-D world of -trackers mapper ranks.
//
// The daemon serves the JobServiceProtocol on -addr and, when -admin is
// set, the observability endpoints (/metrics, /metrics.prom, /trace.json,
// /timeline, /jobs, /events, /healthz, /series, /series.json,
// /debug/pprof/) on -admin: -events sizes the flight-recorder ring and
// -sample paces the time-series sampler behind /series.json. SIGTERM or
// SIGINT starts a graceful drain: no new admissions, queued and running
// jobs finish, and anything still unfinished after -drain is canceled.
//
// Client mode, against a running daemon:
//
//	mpid-serve -connect 127.0.0.1:9070 -submit wordcount -tenant alice \
//	    -params bytes=65536,reducers=2
//	mpid-serve -connect 127.0.0.1:9070 -stats
//
// -submit submits the named workload and waits for completion, printing
// the job id, outcome, latency, and output digest; a saturated service
// is retried after its own RetryAfter hint until admitted. -stats prints
// the service snapshot as JSON.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/serve"
)

func main() {
	// Daemon flags.
	addr := flag.String("addr", "127.0.0.1:9070", "daemon: RPC listen address")
	adminAddr := flag.String("admin", "", "daemon: admin HTTP listen address (empty = no admin server)")
	slots := flag.Int("slots", 4, "daemon: concurrent-job slots")
	queue := flag.Int("queue", 64, "daemon: admission queue depth")
	trackers := flag.Int("trackers", 2, "daemon: mapper ranks per job")
	drain := flag.Duration("drain", 30*time.Second, "daemon: graceful drain budget on SIGTERM")
	eventCap := flag.Int("events", obs.DefaultEventCap, "daemon: flight-recorder ring capacity")
	sample := flag.Duration("sample", time.Second, "daemon: metrics time-series sampling interval")

	// Client flags.
	connect := flag.String("connect", "", "client: daemon address to connect to (enables client mode)")
	submit := flag.String("submit", "", "client: submit this workload and wait (e.g. wordcount)")
	tenant := flag.String("tenant", "default", "client: tenant to submit as")
	params := flag.String("params", "", "client: workload parameters, e.g. bytes=65536,reducers=2")
	stats := flag.Bool("stats", false, "client: print the service stats snapshot")
	timeout := flag.Duration("timeout", 10*time.Minute, "client: total per-call budget (covers the blocking wait)")
	flag.Parse()

	if *connect != "" {
		if err := runClient(*connect, *submit, *tenant, *params, *stats, *timeout); err != nil {
			fail(err)
		}
		return
	}
	if err := runDaemon(*addr, *adminAddr, *slots, *queue, *trackers, *drain, *eventCap, *sample); err != nil {
		fail(err)
	}
}

func runDaemon(addr, adminAddr string, slots, queue, trackers int, drain time.Duration,
	eventCap int, sample time.Duration) error {
	svc := serve.New(serve.Config{
		Slots:      slots,
		QueueDepth: queue,
		Cluster:    hadoop.Config{NumTrackers: trackers},
		EventCap:   eventCap,
	})
	srv := hadooprpc.NewServer()
	srv.Register(serve.NewProtocol(svc, serve.NewWorkloads()))
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("mpid-serve: serving %s v%d on %s (mpid engine, %d slots, %d queue)\n",
		serve.ProtocolName, serve.ProtocolVersion, bound, slots, queue)

	if adminAddr != "" {
		cfg := serve.DefaultSeries()
		cfg.Interval = sample
		smp := obs.NewSampler(svc.Telemetry().Metrics, cfg)
		smp.Start()
		defer smp.Stop()
		extras := []admin.Page{
			{Path: "/jobs", Handler: jobsPage(svc)},
			admin.HealthPage(svc.Health()),
		}
		extras = append(extras, admin.SeriesPages(smp)...)
		adm, err := admin.New(adminAddr, svc.Telemetry(), extras...)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Printf("mpid-serve: admin on http://%s (/metrics /metrics.prom /trace.json /timeline /jobs /events /healthz /series /series.json /debug/pprof/)\n", adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("mpid-serve: %s received, draining (budget %s)\n", got, drain)
	if err := svc.Drain(drain); err != nil {
		fmt.Printf("mpid-serve: drain incomplete: %v\n", err)
	} else {
		fmt.Println("mpid-serve: drained cleanly")
	}
	st := svc.Stats()
	fmt.Printf("mpid-serve: lifetime done=%d failed=%d rejected=%d\n", st.Done, st.Failed, st.Rejected)
	return nil
}

// jobsPage renders the retained job table: the service-level view the
// per-job admin endpoints cannot give.
func jobsPage(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		jobs := svc.Jobs()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-6s %-12s %-18s %-8s %12s  %s\n", "ID", "TENANT", "NAME", "STATE", "LATENCY-MS", "ERROR")
		for _, j := range jobs {
			lat := ""
			if j.Latency > 0 {
				lat = fmt.Sprintf("%.1f", j.Latency)
			}
			fmt.Fprintf(w, "%-6d %-12s %-18s %-8s %12s  %s\n", j.ID, j.Tenant, j.Name, j.State, lat, j.Error)
		}
	}
}

func runClient(addr, submit, tenant, params string, stats bool, timeout time.Duration) error {
	c, err := serve.DialService(addr, hadooprpc.Options{CallTimeout: timeout})
	if err != nil {
		return err
	}
	defer c.Close()

	if stats {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		body, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(body))
	}
	if submit == "" {
		if !stats {
			return errors.New("client mode wants -submit and/or -stats")
		}
		return nil
	}

	args, err := parseParams(params)
	if err != nil {
		return err
	}
	start := time.Now()
	var id int64
	for {
		id, err = c.Submit(tenant, submit, args)
		if err == nil {
			break
		}
		var sat *serve.SaturatedError
		if !errors.As(err, &sat) {
			return err
		}
		fmt.Printf("mpid-serve: saturated (%d/%d queued), retrying in %s\n", sat.Queued, sat.Depth, sat.RetryAfter)
		time.Sleep(sat.RetryAfter)
	}
	fmt.Printf("mpid-serve: job %d submitted as %q, waiting\n", id, tenant)
	res, err := c.Wait(id)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("job %d failed: %s", id, res.ErrMsg)
	}
	fmt.Printf("mpid-serve: job %d done in %s (client wall %s)\n", id, res.Duration.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	fmt.Printf("mpid-serve: output digest %s\n", hex.EncodeToString(res.Digest))
	return nil
}

// parseParams turns "bytes=65536,reducers=2" into workload parameters.
func parseParams(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int64)
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad parameter %q: %w", part, err)
		}
		out[key] = n
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mpid-serve: %v\n", err)
	os.Exit(1)
}
