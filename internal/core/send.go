package core

import (
	"errors"
	"fmt"
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
// of the buffered table. The caller keeps ownership of key and value.
func (d *D) Send(key, value []byte) error {
	if !d.sendOpen {
		return d.sendRefused()
	}
	d.counters.PairsCombined += d.buf.add(key, value, d.cfg.Combiner)
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

// spill drains the hash table: combine, partition, realign, transmit. This
// is the heart of MPI-D — it converts the discrete, variable-size key-value
// world into the contiguous fixed-layout buffers MPI moves efficiently.
//
// Partitions are serialized in sorted key order, making every shipped
// buffer a sorted run — the invariant the receive-side k-way merge builds
// on. Partition buffers come from Config.Pool and, when the transport
// copies payloads (TCP), are retained and reused across spills.
func (d *D) spill() error {
	if d.buf.empty() {
		return nil
	}
	d.counters.Spills++

	spillStart := time.Now()
	nParts := d.numPartitions()
	parts := d.takePartBufs(nParts)

	// Realignment: each key's frame into its partition's contiguous buffer,
	// in sorted key order.
	combined, err := d.buf.realign(parts, d.cfg.Partitioner, d.cfg.Combiner, d.cfg.SortValues)
	d.counters.PairsCombined += combined
	if err != nil {
		return err
	}
	d.buf.reset()
	realignEnd := time.Now()
	d.realignTimer.ObserveDuration(realignEnd.Sub(spillStart))

	for p, data := range parts {
		if len(data) == 0 {
			continue
		}
		dst := d.partitionOwner(p)
		d.counters.MessagesSent++
		d.counters.BytesSent += int64(len(data))
		if err := d.comm.Send(dst, DataTag, data); err != nil {
			return err
		}
	}
	if d.reuseParts {
		// The transport copied every payload, so the buffers are ours again.
		d.partBufs = parts
		d.partReuse.Add(int64(nParts))
	}
	end := time.Now()
	d.spillTimer.ObserveDuration(end.Sub(spillStart))
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Record(trace.Context{}, "mpid.realign", trace.KindMerge, spillStart, realignEnd)
		d.cfg.Tracer.Record(trace.Context{}, "mpid.spill", trace.KindMerge, spillStart, end)
	}
	return nil
}

// takePartBufs returns nParts empty partition buffers: the retained ones
// from the previous spill when the transport allows reuse, fresh pool
// buffers otherwise (ownership then transfers with the message). Fresh ones
// are sized to an even share of what the arena will serialize, so a balanced
// spill never regrows them; a nil pool allocates that size.
func (d *D) takePartBufs(nParts int) [][]byte {
	parts := d.partBufs
	d.partBufs = nil
	if len(parts) == nParts {
		for i := range parts {
			parts[i] = parts[i][:0]
		}
		return parts
	}
	parts = make([][]byte, nParts)
	est := d.buf.wireBytes()/nParts + 512
	for i := range parts {
		parts[i] = d.cfg.Pool.Get(est)[:0]
	}
	return parts
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
