package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/trace"
)

// combineEvery bounds a key's in-buffer value list: once it reaches this
// length the combiner folds it down. This keeps hot keys from growing
// unbounded slices between spills — the paper puts local combination inside
// the MPI_D_Send routine, and doing it incrementally is what makes that
// cheap ("the aim of combining is to reduce the memory consuming").
const combineEvery = 256

// Send buffers one key-value pair for delivery to the reducer owning its
// partition — MPI_D_Send. It returns quickly: at worst it triggers a spill
// of the buffered table. The caller keeps ownership of key and value. The
// partitioner runs here, for each key the buffer does not hold yet, so a
// partition out of range fails this Send, as does a pair that would take the
// buffer past its int32 offsets (about 256 MiB). It then buffers nothing.
func (d *D) Send(key, value []byte) error {
	if !d.sendOpen {
		return d.sendRefused()
	}
	combined, err := d.buf.add(key, value, d.cfg.Combiner)
	if err != nil {
		return err
	}
	d.counters.PairsCombined += combined
	d.counters.PairsSent++
	if d.buf.bytes() >= d.cfg.SpillThreshold {
		return d.spill()
	}
	return nil
}

// sendRefused says why Send was refused. A finalized instance and a rank that
// is not a sender both have sendOpen unset, so Send tests only that.
func (d *D) sendRefused() error {
	switch {
	case d.finalized:
		return ErrFinalized
	case !d.isSender:
		return fmt.Errorf("mpid: rank %d is not a sender", d.comm.Rank())
	}
	return errors.New("mpid: send side already closed")
}

// SendPair is Send for a kv.Pair.
func (d *D) SendPair(p kv.Pair) error { return d.Send(p.Key, p.Value) }

// spill drains the hash table: combine, realign, transmit. This
// is the heart of MPI-D — it converts the discrete, variable-size key-value
// world into the contiguous fixed-layout buffers MPI moves efficiently.
//
// Partitions are serialized in sorted key order, making every shipped
// buffer a sorted run — the invariant the receive-side k-way merge builds
// on. They are realigned into the rank's own partition buffers, which a
// transport that copies payloads (TCP) sends as they are. The in-process
// transport hands the slice itself to the receiver, so it gets an exact copy:
// a buffer of just its data, while the rank keeps its own.
func (d *D) spill() error {
	if d.buf.empty() {
		return nil
	}
	d.counters.Spills++

	spillStart := time.Now()
	parts := d.buf.partBufs(d.numPartitions())

	// Realignment: each key's frame into its partition's contiguous buffer,
	// in sorted key order.
	d.counters.PairsCombined += d.buf.realign(parts, d.cfg.Combiner, d.cfg.SortValues)
	d.buf.reset()
	realignEnd := time.Now()
	d.realignTimer.ObserveDuration(realignEnd.Sub(spillStart))

	handOver := !d.comm.SendCopies()
	for p, data := range parts {
		if len(data) == 0 {
			continue
		}
		if handOver {
			data = append(make([]byte, 0, len(data)), data...)
		}
		dst := d.partitionOwner(p)
		d.counters.MessagesSent++
		d.counters.BytesSent += int64(len(data))
		if err := d.comm.Send(dst, DataTag, data); err != nil {
			return err
		}
	}
	end := time.Now()
	d.spillTimer.ObserveDuration(end.Sub(spillStart))
	if d.cfg.Tracer != nil {
		rank := d.rankNote()
		d.cfg.Tracer.Record(trace.Context{}, "mpid.realign", trace.KindMerge, spillStart, realignEnd, rank)
		d.cfg.Tracer.Record(trace.Context{}, "mpid.spill", trace.KindMerge, spillStart, end, rank)
	}
	return nil
}

// Flush forces a spill of whatever is buffered, without closing the stream.
func (d *D) Flush() error {
	if d.finalized {
		return ErrFinalized
	}
	if !d.isSender {
		return nil
	}
	return d.spill()
}

// rankNote annotates this rank's spans with its rank.
func (d *D) rankNote() trace.Annotation {
	return trace.Annotation{Key: "rank", Value: strconv.Itoa(d.comm.Rank())}
}
