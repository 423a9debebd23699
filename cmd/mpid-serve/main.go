// Command mpid-serve runs the MPI-D runtime as a long-lived multi-tenant
// job service: a daemon that accepts WordCount-class job submissions over
// the Hadoop-style RPC wire, schedules them fairly across tenants under
// bounded admission, and drains gracefully on SIGTERM.
//
// Daemon mode (the default):
//
//	mpid-serve -addr 127.0.0.1:9070 -admin 127.0.0.1:9071
//	mpid-serve -mappers 3 -slots 8
//
// Each job runs on an in-process MPI-D world of -mappers mapper ranks.
//
// The daemon serves the JobServiceProtocol on -addr and, when -admin is
// set, the observability endpoints (/metrics, /metrics.prom, /trace.json,
// /timeline, /jobs, /events, /healthz, /debug/pprof/) on -admin. /healthz
// answers 200 while the service admits work and 503 once admission is at
// capacity or a drain has begun. SIGTERM or SIGINT starts a graceful drain:
// no new admissions, queued and running jobs finish, and anything still
// unfinished after -drain is canceled.
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
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ict-repro/mpid/internal/admin"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/serve"
)

func main() {
	// Daemon flags.
	addr := flag.String("addr", "127.0.0.1:9070", "daemon: RPC listen address")
	adminAddr := flag.String("admin", "", "daemon: admin HTTP listen address (empty = no admin server)")
	slots := flag.Int("slots", 4, "daemon: concurrent-job slots")
	queue := flag.Int("queue", 64, "daemon: admission queue depth")
	mappers := flag.Int("mappers", 2, "daemon: mapper ranks per job")
	drain := flag.Duration("drain", 30*time.Second, "daemon: graceful drain budget on SIGTERM")

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
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := runDaemon(*addr, *adminAddr, *slots, *queue, *mappers, *drain, sig, os.Stdout); err != nil {
		fail(err)
	}
}

// runDaemon serves until a signal arrives on stop, then drains, writing its
// progress to out.
func runDaemon(addr, adminAddr string, slots, queue, mappers int, drain time.Duration,
	stop <-chan os.Signal, out io.Writer) error {
	svc := serve.New(serve.Config{
		Slots:      slots,
		QueueDepth: queue,
		Cluster:    hadoop.Config{NumTrackers: mappers},
	})
	srv := hadooprpc.NewServer()
	srv.Register(serve.NewProtocol(svc, serve.NewWorkloads()))
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "mpid-serve: serving %s v%d on %s (mpid engine, %d slots, %d queue)\n",
		serve.ProtocolName, serve.ProtocolVersion, bound, slots, queue)

	if adminAddr != "" {
		adm, err := admin.New(adminAddr, svc.Telemetry(),
			admin.Page{Path: "/jobs", Handler: jobsPage(svc)},
			admin.Page{Path: "/healthz", Handler: healthzPage(svc)})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "mpid-serve: admin on http://%s (/metrics /metrics.prom /trace.json /timeline /jobs /events /healthz /debug/pprof/)\n", adm.Addr())
	}

	got := <-stop
	fmt.Fprintf(out, "mpid-serve: %s received, draining (budget %s)\n", got, drain)
	if err := svc.Drain(drain); err != nil {
		fmt.Fprintf(out, "mpid-serve: drain incomplete: %v\n", err)
	} else {
		fmt.Fprintln(out, "mpid-serve: drained cleanly")
	}
	st := svc.Stats()
	fmt.Fprintf(out, "mpid-serve: lifetime done=%d failed=%d rejected=%d\n", st.Done, st.Failed, st.Rejected)
	return nil
}

// healthzPage serves the service's health report: 200 while every check
// passes, 503 otherwise.
func healthzPage(svc *serve.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, report := svc.Health()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		io.WriteString(w, report)
	}
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

	args := map[string]int64{}
	if err := serve.ParseParams(args, params); err != nil {
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

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mpid-serve: %v\n", err)
	os.Exit(1)
}
