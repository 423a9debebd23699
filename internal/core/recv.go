package core

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/shuffle"
	"github.com/ict-repro/mpid/internal/trace"
)

// UnexpectedTagError reports a message on the MPI-D communicator whose tag
// is neither DataTag nor DoneTag — some other protocol is leaking onto the
// communicator MPI-D was given. The receiver surfaces it as a typed error
// so callers can tell protocol contamination apart from transport failures.
type UnexpectedTagError struct {
	// Tag is the offending message's tag.
	Tag int
	// Source is the communicator rank that sent it.
	Source int
	// Size is the dropped payload's length in bytes.
	Size int
}

func (e *UnexpectedTagError) Error() string {
	return fmt.Sprintf("mpid: unexpected tag %d from rank %d (%d bytes dropped)", e.Tag, e.Source, e.Size)
}

// receiver is the reducer-side state behind Recv: wildcard reception,
// reverse realignment and the cross-mapper merge.
type receiver struct {
	d *D

	// sendersLeft counts senders that have not yet sent DoneTag.
	sendersLeft int
	// held sums the capacity of every received DataTag payload.
	held int

	// The received partition buffers, each a sorted run numbered by
	// arrival, and the one k-way pass over them.
	runs       []shuffle.Run
	merge      *shuffle.Iterator
	mergeStart time.Time
}

// Recv returns the next key with its value list — MPI_D_Recv. Reducers call
// it in a loop; io.EOF signals that every sender finalized and all data was
// delivered.
//
// Each key is returned exactly once with all its values merged across
// mappers, keys in lexicographic order.
func (d *D) Recv() ([]byte, [][]byte, error) {
	if !d.isReducer {
		return nil, nil, fmt.Errorf("mpid: rank %d is not a reducer", d.comm.Rank())
	}
	return d.recvState.nextGroupedMerged()
}

// RecvKeyList is Recv returning a kv.KeyList.
func (d *D) RecvKeyList() (kv.KeyList, error) {
	k, vs, err := d.Recv()
	return kv.KeyList{Key: k, Values: vs}, err
}

// receiveMessage blocks for the next MPI-D message in the wildcard
// reception style of §IV.A. It returns false when end-of-stream is reached
// (all senders done). An off-protocol tag yields an *UnexpectedTagError.
func (r *receiver) receiveMessage() (data []byte, more bool, err error) {
	for r.sendersLeft > 0 {
		// Wildcard: "each reducer adopts the MPI_Recv primitive in the
		// wildcard reception style to receive messages from any source."
		payload, st, err := r.d.comm.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return nil, false, err
		}
		switch st.Tag {
		case DataTag:
			r.d.counters.BytesReceived += int64(len(payload))
			r.held += cap(payload)
			return payload, true, nil
		case DoneTag:
			r.sendersLeft--
		default:
			return nil, false, &UnexpectedTagError{Tag: st.Tag, Source: st.Source, Size: len(payload)}
		}
	}
	return nil, false, nil
}

// nextGroupedMerged is the single-pass grouped drain: each received
// partition buffer is a sorted run (spill serializes in sorted key order),
// kept as the transport delivered it. Once every sender is done, one k-way
// merge over all runs is pulled a key per call on the reducer's own
// goroutine: nothing is re-serialized between reception and reduce, and an
// abandoned stream leaves nothing running. Equal keys concatenate values in
// run-arrival order. Returned slices alias the received buffers, which are
// therefore never recycled: a reducer's output keeps the pairs it passes
// through where they lie in those buffers (mapred.PartBuilder), which is sound
// only because no one writes to a run once it is received.
func (r *receiver) nextGroupedMerged() ([]byte, [][]byte, error) {
	if r.merge == nil {
		for {
			data, more, err := r.receiveMessage()
			if err != nil {
				return nil, nil, err
			}
			if !more {
				break
			}
			r.runs = append(r.runs, shuffle.Run{Data: data, Seq: len(r.runs)})
		}
		var err error
		r.mergeStart = time.Now()
		if r.merge, err = shuffle.NewIterator(r.runs, nil); err != nil {
			return nil, nil, fmt.Errorf("mpid: corrupt partition buffer: %w", err)
		}
	}
	kl, ok, err := r.merge.Next()
	if err != nil {
		return nil, nil, fmt.Errorf("mpid: corrupt partition buffer: %w", err)
	}
	if !ok {
		if d := r.d; r.runs != nil {
			d.mergeTimer.ObserveDuration(time.Since(r.mergeStart))
			if d.cfg.Tracer != nil {
				d.cfg.Tracer.Record(trace.Context{}, "mpid.recv.merge", trace.KindMerge, r.mergeStart, time.Now(),
					d.rankNote(), trace.Annotation{Key: "runs", Value: strconv.Itoa(len(r.runs))})
			}
			r.runs = nil // observe once; Recv keeps answering io.EOF
		}
		return nil, nil, io.EOF
	}
	r.d.counters.PairsReceived += int64(len(kl.Values))
	return kl.Key, kl.Values, nil
}
