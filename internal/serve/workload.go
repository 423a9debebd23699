package serve

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

// Workload builds a runnable job from wire-encodable parameters. Jobs
// carry function values, which cannot cross the RPC boundary; remote
// submissions instead name a registered workload and pass integer
// parameters, and the daemon constructs the job server-side — the
// job-jar-by-name model, scaled down.
type Workload func(params map[string]int64) (mapred.Job, []mapred.Split, error)

// ErrBadParam is the unknown-parameter sentinel: errors.Is(err,
// ErrBadParam) is true for every *BadParamError, however it traveled.
var ErrBadParam = errors.New("serve: unknown workload parameter")

// BadParamError rejects a submission naming a parameter the workload does
// not accept. Unknown names used to be silently ignored, so a client typo
// (`reducer` for `reducers`) ran the default configuration and returned a
// digest that "passed" against the wrong job; now the submission fails
// loudly, and the error survives the RPC wire (see Client.Submit).
type BadParamError struct {
	// Workload is the submitted workload name.
	Workload string
	// Param is the offending parameter name.
	Param string
	// Known lists the parameter names the workload accepts, sorted.
	Known []string
}

func (e *BadParamError) Error() string {
	return fmt.Sprintf("serve: workload %q has no parameter %q (known: %s)",
		e.Workload, e.Param, strings.Join(e.Known, ", "))
}

// Is makes errors.Is(err, ErrBadParam) match.
func (e *BadParamError) Is(target error) bool { return target == ErrBadParam }

// registered is one registry entry: the builder plus its declared
// parameter names.
type registered struct {
	fn     Workload
	params map[string]bool
}

// Workloads is a named workload registry for the RPC front-end.
type Workloads struct {
	mu sync.Mutex
	m  map[string]registered
}

// NewWorkloads creates a registry pre-loaded with the full workload suite
// (workload.Suite): wordcount, terasort, invindex, grep, join, pagerank.
func NewWorkloads() *Workloads {
	w := &Workloads{m: make(map[string]registered)}
	for _, spec := range workload.Suite() {
		var params []string
		for _, p := range spec.Params {
			params = append(params, p.Name)
		}
		w.Register(spec.Name, spec.Build, params...)
	}
	return w
}

// Register adds (or replaces) a named workload. params declares every
// parameter name the builder accepts; Build rejects submissions naming any
// other parameter.
func (w *Workloads) Register(name string, fn Workload, params ...string) {
	known := make(map[string]bool, len(params))
	for _, p := range params {
		known[p] = true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.m[name] = registered{fn: fn, params: known}
}

// Check rejects an unknown workload name and — with a typed
// *BadParamError — a parameter name the workload does not declare.
func (w *Workloads) Check(name string, params map[string]int64) error {
	w.mu.Lock()
	reg, ok := w.m[name]
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown workload %q", name)
	}
	for p := range params {
		if !reg.params[p] {
			known := make([]string, 0, len(reg.params))
			for k := range reg.params {
				known = append(known, k)
			}
			sort.Strings(known)
			return &BadParamError{Workload: name, Param: p, Known: known}
		}
	}
	return nil
}

// Build constructs the named workload's job once Check accepts it.
func (w *Workloads) Build(name string, params map[string]int64) (mapred.Job, []mapred.Split, error) {
	if err := w.Check(name, params); err != nil {
		return mapred.Job{}, nil, err
	}
	w.mu.Lock()
	fn := w.m[name].fn
	w.mu.Unlock()
	return fn(params)
}

// ParseParams adds the workload parameters written "k=v[,k=v...]" to
// params; an empty s adds none. mpid-serve's -params and mpid-job's -param
// are written this way.
func ParseParams(params map[string]int64, s string) error {
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("bad parameter %q (want key=value)", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad parameter %q: %w", part, err)
		}
		params[key] = n
	}
	return nil
}
