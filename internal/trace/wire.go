package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/ict-repro/mpid/internal/kv"
)

// Propagation formats. A jobtracker hands its job's context to each
// tasktracker in the binary form, inside the register response; the HTTP
// shuffle carries it as the X-Trace-Context header. Both carry the same two
// ids.

// ErrCorrupt marks undecodable trace wire data. Receivers treat it as "no
// context": tracing must never fail an operation it observes.
var ErrCorrupt = errors.New("trace: corrupt wire data")

// EncodeContext renders a context in the binary form. An invalid context
// encodes to nil.
func EncodeContext(c Context) []byte {
	if !c.Valid() {
		return nil
	}
	b := kv.AppendVLong(nil, int64(c.Trace))
	return kv.AppendVLong(b, int64(c.Span))
}

// DecodeContext parses an encoded context. Empty input is a valid "no
// context"; garbage returns ErrCorrupt.
func DecodeContext(b []byte) (Context, error) {
	if len(b) == 0 {
		return Context{}, nil
	}
	tr, n, err := kv.ReadVLong(b)
	if err != nil {
		return Context{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sp, _, err := kv.ReadVLong(b[n:])
	if err != nil {
		return Context{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return Context{Trace: uint64(tr), Span: uint64(sp)}, nil
}

// String renders the header form, "trace-span" in hex ("" when invalid).
func (c Context) String() string {
	if !c.Valid() {
		return ""
	}
	return strconv.FormatUint(c.Trace, 16) + "-" + strconv.FormatUint(c.Span, 16)
}

// ParseContext parses the header form. "" is a valid "no context".
func ParseContext(s string) (Context, error) {
	if s == "" {
		return Context{}, nil
	}
	dash := strings.IndexByte(s, '-')
	if dash < 0 || len(s) > 2*16+1 { // two 16-digit ids and the dash
		return Context{}, fmt.Errorf("%w: %.40q", ErrCorrupt, s)
	}
	tr, err1 := strconv.ParseUint(s[:dash], 16, 64)
	sp, err2 := strconv.ParseUint(s[dash+1:], 16, 64)
	if err1 != nil || err2 != nil {
		return Context{}, fmt.Errorf("%w: %q", ErrCorrupt, s)
	}
	return Context{Trace: tr, Span: sp}, nil
}
