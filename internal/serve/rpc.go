package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/kv"
)

// Protocol identity for the job service RPC front-end.
const (
	ProtocolName    = "org.ict.mpid.JobServiceProtocol"
	ProtocolVersion = int64(1)
)

// saturatedPrefix marks an admission rejection on the wire so the client
// can reconstruct the typed *SaturatedError from the remote error text.
const saturatedPrefix = "SATURATED"

// encodeSaturated renders a SaturatedError as a parseable remote-error
// message: "SATURATED queued=12 depth=12 retry_ms=150".
func encodeSaturated(e *SaturatedError) string {
	return fmt.Sprintf("%s queued=%d depth=%d retry_ms=%d",
		saturatedPrefix, e.Queued, e.Depth, e.RetryAfter.Milliseconds())
}

// decodeSaturated reconstructs a *SaturatedError from a remote error's
// text, reporting whether the text carried one.
func decodeSaturated(msg string) (*SaturatedError, bool) {
	i := strings.Index(msg, saturatedPrefix)
	if i < 0 {
		return nil, false
	}
	var queued, depth int
	var retryMs int64
	_, err := fmt.Sscanf(msg[i:], saturatedPrefix+" queued=%d depth=%d retry_ms=%d",
		&queued, &depth, &retryMs)
	if err != nil {
		return nil, false
	}
	return &SaturatedError{
		Queued:     queued,
		Depth:      depth,
		RetryAfter: time.Duration(retryMs) * time.Millisecond,
	}, true
}

// badParamPrefix marks an unknown-parameter rejection on the wire, so a
// client typo surfaces as the same typed *BadParamError the local API
// returns instead of an opaque remote failure.
const badParamPrefix = "BADPARAM"

// encodeBadParam renders a BadParamError as a parseable remote-error
// message: "BADPARAM workload=terasort param=reducer known=records,reducers".
func encodeBadParam(e *BadParamError) string {
	return fmt.Sprintf("%s workload=%s param=%s known=%s",
		badParamPrefix, e.Workload, e.Param, strings.Join(e.Known, ","))
}

// decodeBadParam reconstructs a *BadParamError from a remote error's text,
// reporting whether the text carried one.
func decodeBadParam(msg string) (*BadParamError, bool) {
	i := strings.Index(msg, badParamPrefix)
	if i < 0 {
		return nil, false
	}
	var wl, param, known string
	n, err := fmt.Sscanf(msg[i:], badParamPrefix+" workload=%s param=%s known=%s", &wl, &param, &known)
	if err != nil && n < 2 {
		return nil, false
	}
	e := &BadParamError{Workload: wl, Param: param}
	if known != "" {
		e.Known = strings.Split(known, ",")
	}
	return e, true
}

// expiredMarker marks a wait on an evicted job record on the wire, so the
// client returns the same ErrExpired the local Lookup does.
const expiredMarker = "EXPIRED"

// NewProtocol builds the RPC protocol serving the job service:
//
//	submit(tenant, workload, paramsJSON) -> jobID
//	wait(jobID)                          -> ok, errMsg, durationNs, digest
//	stats()                              -> Stats JSON
//
// Submissions name a registered workload (jobs carry function values and
// cannot cross the wire). Saturation travels as a typed marker in the
// remote error text; Client.Submit reconstructs the *SaturatedError. A wait
// on an evicted record travels the same way and comes back as ErrExpired.
func NewProtocol(s *Service, workloads *Workloads) *hadooprpc.Protocol {
	return &hadooprpc.Protocol{
		Name:    ProtocolName,
		Version: ProtocolVersion,
		Methods: map[string]hadooprpc.Handler{
			"submit": func(params [][]byte) ([]byte, error) {
				if len(params) != 3 {
					return nil, errors.New("submit wants 3 parameters")
				}
				tenant := string(params[0])
				name := string(params[1])
				var args map[string]int64
				if len(params[2]) > 0 {
					if err := json.Unmarshal(params[2], &args); err != nil {
						return nil, fmt.Errorf("submit params: %w", err)
					}
				}
				job, splits, err := workloads.Build(name, args)
				if err != nil {
					var bad *BadParamError
					if errors.As(err, &bad) {
						return nil, errors.New(encodeBadParam(bad))
					}
					return nil, err
				}
				j, err := s.Submit(tenant, name, job, splits)
				if err != nil {
					var sat *SaturatedError
					if errors.As(err, &sat) {
						return nil, errors.New(encodeSaturated(sat))
					}
					return nil, err
				}
				return kv.AppendVLong(nil, j.ID), nil
			},
			"wait": func(params [][]byte) ([]byte, error) {
				if len(params) != 1 {
					return nil, errors.New("wait wants 1 parameter")
				}
				id, _, err := kv.ReadVLong(params[0])
				if err != nil {
					return nil, err
				}
				j, err := s.Lookup(id)
				if errors.Is(err, ErrExpired) {
					return nil, fmt.Errorf("%s job=%d", expiredMarker, id)
				}
				if err != nil {
					return nil, err
				}
				<-j.Done()
				ok := int64(1)
				msg := ""
				if j.Err != nil {
					ok = 0
					msg = j.Err.Error()
				}
				resp := kv.AppendVLong(nil, ok)
				resp = kv.AppendBytes(resp, []byte(msg))
				resp = kv.AppendVLong(resp, int64(j.Latency()))
				resp = kv.AppendBytes(resp, j.digest)
				return resp, nil
			},
			"stats": func(params [][]byte) ([]byte, error) {
				return json.Marshal(s.Stats())
			},
		},
	}
}

// RemoteResult is a completed job as seen over the wire: success, the
// failure message if any, queue-to-finish latency, and the output digest
// (OutputDigest) for byte-identical cross-run comparison.
type RemoteResult struct {
	OK       bool
	ErrMsg   string
	Duration time.Duration
	Digest   []byte
}

// Client is a job-service RPC client: the submitter side of cmd/mpid-serve.
type Client struct {
	rpc *hadooprpc.MuxClient
}

// DialService connects to a running mpid-serve daemon.
func DialService(addr string, opts hadooprpc.Options) (*Client, error) {
	rpc, err := hadooprpc.DialMuxOptions(addr, ProtocolName, ProtocolVersion, opts)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc}, nil
}

// Submit submits a named workload for a tenant and returns the job id. A
// saturated service surfaces as a *SaturatedError (errors.Is(err,
// ErrSaturated)); a submission naming a parameter the workload does not
// accept as a *BadParamError (errors.Is(err, ErrBadParam)); a draining
// service as an error wrapping ErrDraining's text.
func (c *Client) Submit(tenant, workload string, params map[string]int64) (int64, error) {
	blob, err := json.Marshal(params)
	if err != nil {
		return 0, err
	}
	resp, err := c.rpc.Call("submit", []byte(tenant), []byte(workload), blob)
	if err != nil {
		if sat, ok := decodeSaturated(err.Error()); ok {
			return 0, sat
		}
		if bad, ok := decodeBadParam(err.Error()); ok {
			return 0, bad
		}
		return 0, err
	}
	id, _, err := kv.ReadVLong(resp)
	return id, err
}

// Wait blocks until the job finishes and returns its remote result, or
// ErrExpired if the service no longer retains the job's record. The call
// rides the RPC layer's deadline: pass Options with a CallTimeout sized for
// the longest job when dialing.
func (c *Client) Wait(id int64) (RemoteResult, error) {
	resp, err := c.rpc.Call("wait", kv.AppendVLong(nil, id))
	if err != nil {
		if strings.Contains(err.Error(), expiredMarker) {
			return RemoteResult{}, fmt.Errorf("%w: %d", ErrExpired, id)
		}
		return RemoteResult{}, err
	}
	ok, n, err := kv.ReadVLong(resp)
	if err != nil {
		return RemoteResult{}, err
	}
	resp = resp[n:]
	msg, n, err := kv.ReadBytes(resp)
	if err != nil {
		return RemoteResult{}, err
	}
	resp = resp[n:]
	dur, n, err := kv.ReadVLong(resp)
	if err != nil {
		return RemoteResult{}, err
	}
	resp = resp[n:]
	digest, _, err := kv.ReadBytes(resp)
	if err != nil {
		return RemoteResult{}, err
	}
	return RemoteResult{
		OK:       ok == 1,
		ErrMsg:   string(msg),
		Duration: time.Duration(dur),
		Digest:   append([]byte(nil), digest...),
	}, nil
}

// Stats fetches the service's current snapshot.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.rpc.Call("stats")
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(resp, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.rpc.Close() }
