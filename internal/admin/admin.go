// Package admin is the live observability endpoint: a small HTTP server
// exposing one obs.Telemetry — its metrics registry, its trace in Chrome
// trace-event form, an ASCII timeline and its flight recorder — and
// net/http/pprof: the runtime introspection a real Hadoop cluster gets
// from its web UIs and JMX, scaled down to one process. The engines never
// start one: the process that owns a job's telemetry does — cmd/mpid-job
// for the length of one run (-admin), cmd/mpid-serve for the life of the
// service.
package admin

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// Server serves the admin endpoints over one listener:
//
//	/metrics        text snapshot of the metrics registry
//	/metrics.prom   the same snapshot in OpenMetrics text exposition
//	/trace.json     Chrome trace-event JSON of the spans collected so far
//	/timeline       fixed-width ASCII Gantt of the same spans
//	/events         the flight recorder's retained events, oldest first
//	/debug/pprof/   the standard net/http/pprof handlers
//
// plus whatever extra pages the caller mounts (mpid-serve's /jobs and
// /healthz).
// Reads are live: each request snapshots the telemetry at that moment, so
// polling /metrics during a job watches counters move.
type Server struct {
	tel obs.Telemetry

	srv *http.Server
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// Page is an extra endpoint mounted on the admin mux — how long-lived
// daemons (cmd/mpid-serve) add service-specific views like /jobs without
// the admin package knowing about them.
type Page struct {
	// Path is the mount point, e.g. "/jobs".
	Path string
	// Handler serves it.
	Handler http.HandlerFunc
}

// New binds addr (use "127.0.0.1:0" for an ephemeral port) and starts
// serving tel. A nil member is allowed and serves empty content. Extra
// pages, when given, are mounted alongside the built-in endpoints.
func New(addr string, tel obs.Telemetry, extras ...Page) (*Server, error) {
	s := &Server{tel: tel}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/events", s.handleEvents)
	for _, p := range extras {
		mux.HandleFunc(p.Path, p.Handler)
	}
	// pprof registers itself on http.DefaultServeMux; wire its handlers
	// onto this private mux instead so the admin server is self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	// ReadHeaderTimeout keeps a stalled client from pinning a serve
	// goroutine forever — this server lives as long as the daemon does.
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln) // returns on Close
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(s.tel.Metrics.Snapshot().String()))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	data, err := trace.ChromeTrace(s.tel.Tracer.Spans())
	if err != nil {
		http.Error(w, "admin: trace export: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(trace.RenderTimeline(s.tel.Tracer.Spans(), 80)))
}

// PromContentType is the Content-Type /metrics.prom responds with.
const PromContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	obs.WriteProm(w, "mpid", s.tel.Metrics.Snapshot())
}

// handleEvents serves the flight recorder as a text table, with a drop
// count when the ring has wrapped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d := s.tel.Events.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d older events dropped by the ring)\n", d)
	}
	w.Write([]byte(obs.RenderEvents(s.tel.Events.Events())))
}
