// Package jetty reimplements Hadoop's embedded-Jetty HTTP data path: the
// map-output servlet that tasktrackers run and reducers fetch intermediate
// data from during the copy stage of shuffle (§II.B of the paper), plus the
// streaming endpoint its bandwidth benchmark uses.
//
// It is built on net/http, which plays the role Jetty plays inside Hadoop:
// an embedded HTTP server. The shuffle protocol follows the 0.20
// MapOutputServlet: outputs are addressed by (job, map, reduce), responses
// carry the map-output length headers, and bodies stream — streaming is why
// the paper measures Jetty within 2-3% of MPI peak bandwidth while Hadoop
// RPC sits two orders of magnitude below.
package jetty

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/trace"
)

// ErrGone marks a fetch the server answered 410 Gone for: the map output no
// longer exists there (the tasktracker restarted or the job was cleaned up).
// Retrying the same server cannot help — the reducer must report the fetch
// failure so the map is re-executed elsewhere.
var ErrGone = errors.New("jetty: map output gone")

// IsGone reports whether err means the output is permanently missing from
// the queried server.
func IsGone(err error) bool { return errors.Is(err, ErrGone) }

// statusError is a non-200 HTTP response. 5xx responses are retryable
// (transient server-side trouble); other 4xx are not.
type statusError struct {
	code   int
	status string
}

func (e *statusError) Error() string { return "jetty: fetch status " + e.status }

// fetchRetryable reports whether a failed fetch may succeed on a retry
// against the same server: transport failures and 5xx responses are
// retryable; Gone, client errors and component crashes are not.
func fetchRetryable(err error) bool {
	if err == nil || IsGone(err) || faults.IsCrash(err) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// Header names mirroring the 0.20 shuffle.
const (
	// HeaderMapOutputLength carries the payload size.
	HeaderMapOutputLength = "X-Map-Output-Length"
	// HeaderForReduce echoes the reduce id the output was partitioned for.
	HeaderForReduce = "X-For-Reduce"
	// HeaderTraceContext carries the fetcher's trace context ("trace-span"
	// in hex) so the serving side can parent its serve span under the
	// reducer's fetch span. Absent on untraced fetches; ignored by servers
	// without a Tracer.
	HeaderTraceContext = "X-Trace-Context"
)

// OutputKey addresses one map output partition.
type OutputKey struct {
	Job    string
	Map    int
	Reduce int
}

// Store holds map outputs a server can serve. It is safe for concurrent
// use: mappers put while reducers fetch. A segment is either an in-memory
// byte slice (Put) or a reference to a spill file on disk (PutFile); the
// server serves both through the same servlet, using sendfile for the
// file-backed ones.
type Store struct {
	mu    sync.RWMutex
	data  map[OutputKey][]byte
	files map[OutputKey]fileSegment
}

// fileSegment is a disk-resident map output: the spill file path and the
// segment's byte length (validated at PutFile time so serves can set
// Content-Length without a stat).
type fileSegment struct {
	path string
	size int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: make(map[OutputKey][]byte), files: make(map[OutputKey]fileSegment)}
}

// Put registers the output of one (job, map) for one reduce. The store
// keeps a reference; the caller must not modify data afterwards.
func (s *Store) Put(key OutputKey, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = data
}

// PutFile registers a disk-resident output: the segment lives in the spill
// file at path and is served straight off disk (sendfile). The file is
// stat'd once here so its size is known; the caller must keep it intact
// until Delete.
func (s *Store) PutFile(key OutputKey, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("jetty: put file segment: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[key] = fileSegment{path: path, size: fi.Size()}
	return nil
}

// Get returns the stored in-memory output and whether it exists. File-backed
// segments are not materialized here; they are served directly by the
// server (see GetFile).
func (s *Store) Get(key OutputKey) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.data[key]
	return d, ok
}

// GetFile returns the path and size of a file-backed output.
func (s *Store) GetFile(key OutputKey) (string, int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[key]
	return f.path, f.size, ok
}

// Delete removes an output (job cleanup). For file-backed segments only the
// reference is dropped; the spill file itself belongs to the caller.
func (s *Store) Delete(key OutputKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	delete(s.files, key)
}

// Len returns the number of stored outputs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data) + len(s.files)
}

// Server is the embedded HTTP server a tasktracker would run.
type Server struct {
	store *Store
	// Injector, when set, gates every mapOutput request ("serve"
	// operation); an injected fault answers 503 Service Unavailable,
	// which clients treat as retryable. Set before Listen.
	Injector *faults.Injector
	// Component names this server to the injector (default "jetty.server").
	Component string
	// Metrics, when set, counts served map outputs ("shuffle.serves") and
	// body bytes written ("shuffle.serve_bytes"). Set before Listen.
	Metrics *metrics.Registry
	// Tracer, when set, records a serve span per map-output request,
	// parented under the fetcher's span when the request carries
	// HeaderTraceContext. Set before Listen.
	Tracer *trace.Tracer

	httpSrv *http.Server
	ln      net.Listener
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
}

// NewServer creates a server over the given store.
func NewServer(store *Store) *Server {
	return &Server{store: store}
}

// Listen binds to addr and starts serving; it returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/mapOutput", s.handleMapOutput)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/ping", s.handlePing)
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	s.ln, s.httpSrv = ln, srv
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) // returns on Close
	}()
	return ln.Addr().String(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	s.wg.Wait()
	return err
}

// handleMapOutput serves one stored map output, the MapOutputServlet path.
func (s *Server) handleMapOutput(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	mapID, err1 := strconv.Atoi(q.Get("map"))
	reduceID, err2 := strconv.Atoi(q.Get("reduce"))
	job := q.Get("job")
	if err1 != nil || err2 != nil || job == "" {
		http.Error(w, "jetty: bad mapOutput query", http.StatusBadRequest)
		return
	}
	comp := s.Component
	if comp == "" {
		comp = "jetty.server"
	}
	// Parent the serve span under the fetcher's span when the request
	// carries a trace context; a malformed header degrades to a fresh root.
	pctx, _ := trace.ParseContext(r.Header.Get(HeaderTraceContext))
	span := s.Tracer.StartChild(pctx, fmt.Sprintf("serve m%d->r%d", mapID, reduceID), trace.KindServe)
	defer span.End()
	if err := s.Injector.Check(comp, "serve", job); err != nil {
		span.Annotate("error", err.Error())
		http.Error(w, "jetty: injected fault: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	key := OutputKey{Job: job, Map: mapID, Reduce: reduceID}
	data, ok := s.store.Get(key)
	var fpath string
	var fsize int64
	if !ok {
		fpath, fsize, ok = s.store.GetFile(key)
	}
	if !ok {
		span.Annotate("error", "gone")
		http.Error(w, "jetty: no such map output", http.StatusGone)
		return
	}
	if fpath != "" {
		s.serveFile(w, span, fpath, fsize, reduceID)
		return
	}
	span.Annotate("bytes", strconv.Itoa(len(data)))
	w.Header().Set(HeaderMapOutputLength, strconv.Itoa(len(data)))
	w.Header().Set(HeaderForReduce, strconv.Itoa(reduceID))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	s.Metrics.Counter("shuffle.serves").Inc()
	s.Metrics.Counter("shuffle.serve_bytes").Add(int64(len(data)))
	// net/http's ResponseWriter implements io.ReaderFrom; with
	// Content-Length set the body bypasses chunked encoding, so io.Copy
	// moves the segment in one buffered pass.
	n, _ := io.Copy(w, bytes.NewReader(data))
	s.Metrics.Counter("shuffle.serves_zerocopy").Inc()
	s.Metrics.Counter("shuffle.zerocopy_bytes").Add(n)
}

// serveFile streams a file-backed segment. io.Copy finds the
// ResponseWriter's io.ReaderFrom and the *os.File source, which on Linux
// collapses into sendfile(2): the segment moves disk→socket without ever
// entering user space — the Jetty NIO transferTo serving Hadoop uses when
// shuffle outputs spill to disk.
func (s *Server) serveFile(w http.ResponseWriter, span *trace.Span, path string, size int64, reduceID int) {
	f, err := os.Open(path)
	if err != nil {
		span.Annotate("error", err.Error())
		http.Error(w, "jetty: map output unreadable", http.StatusGone)
		return
	}
	defer f.Close()
	span.Annotate("bytes", strconv.FormatInt(size, 10))
	span.Annotate("sendfile", "1")
	w.Header().Set(HeaderMapOutputLength, strconv.FormatInt(size, 10))
	w.Header().Set(HeaderForReduce, strconv.Itoa(reduceID))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	s.Metrics.Counter("shuffle.serves").Inc()
	s.Metrics.Counter("shuffle.serve_bytes").Add(size)
	n, _ := io.Copy(w, io.LimitReader(f, size))
	s.Metrics.Counter("shuffle.serves_zerocopy").Inc()
	s.Metrics.Counter("shuffle.sendfile_bytes").Add(n)
}

// handlePing answers liveness probes: a tiny 200 that proves the tracker's
// data path — the same HTTP server reducers fetch map outputs from — is up
// and answering. The injector gates it ("ping" operation) so chaos tests
// can make a live tracker look dead and a dead one flap back.
func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	comp := s.Component
	if comp == "" {
		comp = "jetty.server"
	}
	if err := s.Injector.Check(comp, "ping", r.RemoteAddr); err != nil {
		http.Error(w, "jetty: injected fault: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.Metrics.Counter("shuffle.pings").Inc()
	w.Header().Set("Content-Length", "4")
	w.Write([]byte("pong"))
}

// handleStream serves size synthetic bytes, the §II.B bandwidth endpoint,
// written "chunk" bytes at a time — the sweep's server-side packet size
// (default streamChunk, the 64 KB buffer Hadoop's servlet uses).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
	if err != nil || size < 0 {
		http.Error(w, "jetty: bad stream size", http.StatusBadRequest)
		return
	}
	chunk := streamChunk
	if c := r.URL.Query().Get("chunk"); c != "" {
		if v, err := strconv.Atoi(c); err == nil && v > 0 {
			chunk = v
		}
	}
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	remaining := size
	for remaining > 0 {
		n := int64(len(buf))
		if n > remaining {
			n = remaining
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return
		}
		remaining -= n
	}
}

// streamChunk is handleStream's write size when the request names none.
const streamChunk = 64 * 1024

// --------------------------------------------------------------------------
// Client: the reducer-side copier.

// Client fetches map outputs over HTTP, as a reduce task's copier threads
// do. ReadChunk controls the read buffer size (the client half of the
// packet-size sweep).
//
// Configure the exported fault-tolerance fields before sharing the client
// across goroutines; the fetch methods themselves are concurrency-safe.
// With MaxAttempts > 1 a transport failure or 5xx response is retried
// against the same server after a backoff; 410 Gone (ErrGone) is returned
// immediately so the caller can report a fetch failure and go elsewhere.
type Client struct {
	http      *http.Client
	ReadChunk int
	// MaxAttempts is the total tries per fetch (<= 1 means no retries).
	MaxAttempts int
	// Backoff shapes the delay between retries.
	Backoff faults.Backoff
	// Injector, when set, gates every fetch attempt ("fetch" operation,
	// peer = server address).
	Injector *faults.Injector
	// Metrics, when set, receives fetch observability: "shuffle.fetches"
	// and "shuffle.fetch_bytes" counters, a "shuffle.fetch_latency" timer
	// over whole fetches (retries included), "shuffle.fetch_retries" for
	// repeated attempts against the same server and
	// "shuffle.fetch_errors" for fetches that failed for good.
	Metrics *metrics.Registry
	// Events, when set, receives an obs.EvFetchRetry flight-recorder event
	// for every repeated attempt against the same server. A nil recorder
	// records nothing.
	Events *obs.Recorder
	// Pool, when set, supplies the fetch buffers, so a steady
	// shuffle stops allocating per fetch. Callers that hand fetched
	// segments to a shuffle.Merger with the same pool get end-to-end buffer
	// recycling.
	Pool *bufpool.Pool

	jit *faults.Jitter
}

// NewClient creates a copier client with connection reuse enabled and
// retries off.
func NewClient() *Client {
	return &Client{
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		ReadChunk: 64 * 1024,
		jit:       faults.NewJitter(1),
	}
}

// SetSeed reseeds the retry jitter for reproducible backoff schedules. Call
// before sharing the client across goroutines.
func (c *Client) SetSeed(seed int64) { c.jit = faults.NewJitter(seed) }

// FetchMapOutput retrieves one map output from a server, retrying transient
// failures per the client's retry configuration.
func (c *Client) FetchMapOutput(addr string, key OutputKey) ([]byte, error) {
	return c.FetchMapOutputTraced(trace.Context{}, addr, key)
}

// FetchMapOutputTraced is FetchMapOutput with trace propagation: a valid
// tctx rides the request as HeaderTraceContext so the serving tasktracker
// can parent its serve span under the reducer's fetch span. An invalid
// (zero) context sends no header.
func (c *Client) FetchMapOutputTraced(tctx trace.Context, addr string, key OutputKey) ([]byte, error) {
	return c.FetchMapOutputContext(context.Background(), tctx, addr, key)
}

// FetchMapOutputContext is FetchMapOutputTraced under a context: ctx
// cancellation aborts the in-flight HTTP exchange and cuts the backoff
// schedule short, so a killed or drained job stops fetching promptly
// instead of riding its retries out. Returns ctx.Err() (possibly wrapped)
// once the context is done.
func (c *Client) FetchMapOutputContext(ctx context.Context, tctx trace.Context, addr string, key OutputKey) ([]byte, error) {
	url := fmt.Sprintf("http://%s/mapOutput?job=%s&map=%d&reduce=%d",
		addr, key.Job, key.Map, key.Reduce)
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	c.Metrics.Counter("shuffle.fetches").Inc()
	start := time.Now()
	defer func() { c.Metrics.Timer("shuffle.fetch_latency").ObserveDuration(time.Since(start)) }()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			c.Metrics.Counter("shuffle.fetch_errors").Inc()
			return nil, err
		}
		data, err := c.fetchOnce(ctx, url, addr, tctx)
		if err == nil || !fetchRetryable(err) || ctx.Err() != nil {
			if err != nil {
				c.Metrics.Counter("shuffle.fetch_errors").Inc()
			} else {
				c.Metrics.Counter("shuffle.fetch_bytes").Add(int64(len(data)))
			}
			return data, err
		}
		if attempt >= attempts {
			c.Metrics.Counter("shuffle.fetch_errors").Inc()
			return nil, err
		}
		c.Metrics.Counter("shuffle.fetch_retries").Inc()
		c.Events.Emit(obs.Event{Type: obs.EvFetchRetry,
			Task:   fmt.Sprintf("r%d", key.Reduce),
			Detail: fmt.Sprintf("%s map %d attempt %d: %v", addr, key.Map, attempt, err)})
		delay := time.NewTimer(c.Backoff.Delay(attempt, c.jit))
		select {
		case <-ctx.Done():
			delay.Stop()
			c.Metrics.Counter("shuffle.fetch_errors").Inc()
			return nil, ctx.Err()
		case <-delay.C:
		}
	}
}

// fetchOnce is one fetch attempt: injection point (component
// "jetty.client"), then the HTTP exchange.
func (c *Client) fetchOnce(ctx context.Context, url, peer string, tctx trace.Context) ([]byte, error) {
	if err := c.Injector.Check("jetty.client", "fetch", peer); err != nil {
		return nil, err
	}
	return c.fetch(ctx, url, tctx)
}

// Ping probes the server's /ping endpoint under the given context and
// returns the round-trip time. Any transport failure, non-200 status or
// context expiry is a probe loss.
func (c *Client) Ping(ctx context.Context, addr string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/ping", nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		// A torn body means the connection is poisoned mid-response.
		// Closing the body without a completed drain makes the transport
		// drop the connection instead of returning it to the idle pool,
		// where it would fail the next probe too.
		resp.Body.Close()
		return 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{code: resp.StatusCode, status: resp.Status}
	}
	return time.Since(start), nil
}

// FetchStream retrieves size bytes from the bandwidth endpoint with the
// given server-side chunk size, discarding the body and returning the byte
// count read.
func (c *Client) FetchStream(addr string, size int64, chunk int) (int64, error) {
	url := fmt.Sprintf("http://%s/stream?size=%d&chunk=%d", addr, size, chunk)
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("jetty: stream status %s", resp.Status)
	}
	buf := make([]byte, c.readChunk())
	var total int64
	for {
		n, err := resp.Body.Read(buf)
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

func (c *Client) readChunk() int {
	if c.ReadChunk <= 0 {
		return 64 * 1024
	}
	return c.ReadChunk
}

func (c *Client) fetch(ctx context.Context, url string, tctx trace.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if tctx.Valid() {
		req.Header.Set(HeaderTraceContext, tctx.String())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return nil, fmt.Errorf("%w (%s)", ErrGone, url)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, status: resp.Status}
	}
	want := int64(-1)
	if h := resp.Header.Get(HeaderMapOutputLength); h != "" {
		if v, err := strconv.ParseInt(h, 10, 64); err == nil {
			want = v
		}
	}
	data, err := c.readBody(resp)
	if err != nil {
		return nil, err
	}
	if want >= 0 && int64(len(data)) != want {
		return nil, fmt.Errorf("jetty: got %d bytes, header said %d", len(data), want)
	}
	return data, nil
}

// readBody drains the response body, into a pooled buffer when the length
// is known and a pool is set.
func (c *Client) readBody(resp *http.Response) ([]byte, error) {
	if c.Pool == nil || resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	buf := c.Pool.Get(int(resp.ContentLength))
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		c.Pool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// Close releases idle connections.
func (c *Client) Close() {
	if t, ok := c.http.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
