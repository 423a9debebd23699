// Package mpi is a from-scratch message-passing runtime in Go with MPI
// semantics, cut to what MapReduce needs of MPI: a world of ranks, blocking
// point-to-point Send/Recv with (source, tag) envelope matching including
// wildcards, and a Barrier. There is nothing non-blocking, no probe, no
// sub-communicator and no data-moving collective: MPI-D and the jobs above
// it use none of them.
//
// Go has no mature MPI bindings, so this package substitutes for MPICH2 as
// the substrate MPI-D (internal/core) builds on, per the paper's design:
// "MPI-D is built on the basic point-to-point primitives in MPI" (§IV.A).
// Three transports sit behind the same World:
//
//   - in-process (NewWorld): ranks are goroutines exchanging messages
//     through matched queues — zero-copy hand-off, what mapred.Run, the
//     job service and the examples use;
//   - ring (NewRingWorld): the same hand-off through per-pair slot rings,
//     optionally copying as a shared-memory device would;
//   - TCP (NewTCPWorld): ranks exchange length-prefixed frames over real
//     sockets — the live Figure 2/3 curves, and any job given a TCP world
//     (mapred.RunOnWorld; the benchmark's sort-mpid-tcp workload).
//
// Semantics follow the MPI standard where it matters for correctness:
// messages between a pair of ranks with matching envelopes are
// non-overtaking; Recv with AnySource/AnyTag matches the earliest queued
// message; Barrier must be called by every rank of the world.
package mpi

import (
	"errors"
	"fmt"

	"github.com/ict-repro/mpid/internal/bufpool"
)

// Wildcards for Recv envelope matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any user tag.
	AnyTag = -2
)

// Tag space: user tags must be small non-negative integers; Barrier
// reserves tags at collTagBase and above.
const (
	// MaxUserTag is the largest tag user code may pass to Send/Recv.
	MaxUserTag = 1<<28 - 1
	// collTagBase is the start of Barrier's internal tag space.
	collTagBase = 1 << 28
)

// Status describes a received message.
type Status struct {
	// Source is the sending rank.
	Source int
	// Tag is the message tag.
	Tag int
	// Size is the payload length in bytes.
	Size int
}

// Message is an envelope plus payload moving through a transport.
type Message struct {
	Source int
	Tag    int
	Data   []byte
}

// ErrWorldClosed is returned by operations on a world that has shut down.
var ErrWorldClosed = errors.New("mpi: world closed")

// validateRank reports an error for an out-of-range peer rank.
func validateRank(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	return nil
}

// validateTag reports an error for a tag outside the user tag space.
func validateTag(tag int) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: tag %d outside user tag range [0,%d]", tag, MaxUserTag)
	}
	return nil
}

// transport moves a message to a destination rank's endpoint. Implementations
// must deliver messages from the same source in send order (non-overtaking).
type transport interface {
	send(to int, m Message) error
	close() error
	// copies reports whether send copies the payload before returning, so
	// the caller may immediately reuse the slice (true for the TCP
	// transport, which serializes into the socket; false for the
	// in-process transport, whose hand-off is zero-copy).
	copies() bool
	// recvPool returns the pool frame payloads are drawn from, or nil.
	// A receiver that has fully consumed a payload may Put it back so
	// subsequent frame reads stop allocating.
	recvPool() *bufpool.Pool
}
