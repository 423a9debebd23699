package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/kv"
)

// Propagation formats. On the RPC path a context travels as a trailing
// type-tagged parameter (see hadooprpc); on the HTTP shuffle path it is the
// X-Trace-Context header. Both carry the same two ids.

// ErrCorrupt marks undecodable trace wire data. Receivers treat it as "no
// context": tracing must never fail an operation it observes.
var ErrCorrupt = errors.New("trace: corrupt wire data")

// EncodeContext renders a context for the RPC trailing parameter. An
// invalid context encodes to nil (no parameter appended).
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

// EncodeSpans frames a finished-span batch for shipping over RPC: a count,
// then per span the ids, names, unix-nano timestamps and annotations. Nil
// for an empty batch, so callers can skip the parameter entirely.
func EncodeSpans(spans []Span) []byte {
	if len(spans) == 0 {
		return nil
	}
	b := kv.AppendVLong(nil, int64(len(spans)))
	for _, s := range spans {
		b = kv.AppendVLong(b, int64(s.Trace))
		b = kv.AppendVLong(b, int64(s.ID))
		b = kv.AppendVLong(b, int64(s.Parent))
		b = kv.AppendBytes(b, []byte(s.Name))
		b = kv.AppendBytes(b, []byte(s.Kind))
		b = kv.AppendBytes(b, []byte(s.Proc))
		b = kv.AppendVLong(b, s.Start.UnixNano())
		b = kv.AppendVLong(b, s.Finish.UnixNano())
		b = kv.AppendVLong(b, int64(len(s.Notes)))
		for _, a := range s.Notes {
			b = kv.AppendBytes(b, []byte(a.Key))
			b = kv.AppendBytes(b, []byte(a.Value))
		}
	}
	return b
}

// EncodeSpans writes at least 9 bytes per span (three ids, three string
// lengths, two timestamps and an annotation count) and 2 per annotation.
// DecodeSpans trusts no count beyond what the bytes left could hold, so a
// forged count cannot make it allocate.
const minSpanBytes, minNoteBytes = 9, 2

// DecodeSpans parses an EncodeSpans batch. Empty input decodes to nil.
func DecodeSpans(b []byte) ([]Span, error) {
	if len(b) == 0 {
		return nil, nil
	}
	count, n, err := kv.ReadVLong(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	b = b[n:]
	if count < 0 || count > int64(len(b)/minSpanBytes) {
		return nil, fmt.Errorf("%w: %d spans in %d bytes", ErrCorrupt, count, len(b))
	}
	spans := make([]Span, 0, count)
	for i := int64(0); i < count; i++ {
		var s Span
		var fields [3]int64
		for f := range fields {
			v, n, err := kv.ReadVLong(b)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			fields[f], b = v, b[n:]
		}
		s.Trace, s.ID, s.Parent = uint64(fields[0]), uint64(fields[1]), uint64(fields[2])
		var strs [3][]byte
		for f := range strs {
			v, n, err := kv.ReadBytes(b)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			strs[f], b = v, b[n:]
		}
		s.Name, s.Kind, s.Proc = string(strs[0]), string(strs[1]), string(strs[2])
		startNs, n, err := kv.ReadVLong(b)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b = b[n:]
		endNs, n, err := kv.ReadVLong(b)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b = b[n:]
		s.Start, s.Finish = time.Unix(0, startNs), time.Unix(0, endNs)
		notes, n, err := kv.ReadVLong(b)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b = b[n:]
		if notes < 0 || notes > int64(len(b)/minNoteBytes) {
			return nil, fmt.Errorf("%w: %d annotations in %d bytes", ErrCorrupt, notes, len(b))
		}
		if notes > 0 {
			s.Notes = make([]Annotation, 0, notes)
		}
		for a := int64(0); a < notes; a++ {
			k, n, err := kv.ReadBytes(b)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			b = b[n:]
			v, n, err := kv.ReadBytes(b)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			b = b[n:]
			s.Notes = append(s.Notes, Annotation{Key: string(k), Value: string(v)})
		}
		spans = append(spans, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b))
	}
	return spans, nil
}
