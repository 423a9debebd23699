// Package core implements MPI-D, the paper's contribution: a minimal
// key-value extension to MPI for data-intensive applications (§III-IV).
//
// The paper adds one pair of calls to the MPI standard:
//
//	void MPI_D_Send(S_KEY_TYPE key, S_VALUE_TYPE value);
//	void MPI_D_Recv(R_KEY_TYPE key, R_VALUE_TYPE value);
//
// plus MPI_D_Init / MPI_D_Finalize. In Go these become Init returning a *D
// whose Send, Recv and Finalize methods carry the same semantics:
//
//   - Send(key, value) is called by mappers. The pair is buffered in a hash
//     table and the call returns immediately ("aims to achieve much more
//     overlapping between computing and communication"). A user combiner
//     merges values of equal keys locally. When the buffer exceeds a
//     threshold, pairs are spilled: partitioned by a hash-mod selector,
//     realigned from the discrete hash table into contiguous, densely
//     serialized partition buffers, and shipped with plain MPI sends —
//     destination ranks are assigned automatically from the partition
//     number, so mappers never name a destination (§III, third challenge).
//   - Recv() is called by reducers. It receives with MPI's wildcard
//     source, reverse-realigns the contiguous buffers back into key/value
//     lists and hands them to the application, each key once with the
//     partial lists of every mapper merged, keys in sorted order.
//   - Finalize() flushes remaining buffered pairs and tears the instance
//     down; reducers observe end-of-stream once every sender finalized.
//
// Communication details are entirely hidden from the application, which is
// the point: "the communication process can be automatically completed in
// MPI-D library space."
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/shuffle"
)

// Reserved user tags for MPI-D traffic on the underlying communicator.
// Applications sharing the communicator must avoid these.
const (
	// DataTag carries realigned partition buffers.
	DataTag = 0x4D5044 // "MPD"
	// DoneTag carries end-of-stream markers.
	DoneTag = DataTag + 1
)

// ErrFinalized is returned by operations on a finalized instance.
var ErrFinalized = errors.New("mpid: instance finalized")

// CombineFunc merges the accumulated values of one key into a (usually
// shorter) list — the paper's local combiner, "commonly ... assigned as the
// reduce function". It must be pure: same inputs, same outputs. key and
// values point into the send buffer and are valid only until the function
// returns; several values may share one backing array (the send buffer
// hands over a run of repeats of one value as one slice repeated), so the
// function must not write into its inputs. The result may alias them (a
// subset of values), and the buffer copies it before reusing that space.
//
// A combiner declines by returning its values argument itself: the key's
// values then go on uncombined. MPI-D counts such a key as combining
// nothing (PairsCombined); the hadoop engine counts each decline as
// mapred.combiner.fallback.
//
// CombineFunc is shuffle.Combiner, so one job combiner serves MPI-D's send
// buffer and the hadoop engine's map spill and merge passes alike.
type CombineFunc = shuffle.Combiner

// PartitionFunc maps a key to a partition in [0, n). The default is the
// hash-mod selector, "similar to the HashPartitioner in the Hadoop
// MapReduce framework".
type PartitionFunc func(key []byte, n int) int

// Config configures an MPI-D instance. Comm and Reducers are required.
type Config struct {
	// Comm is the underlying MPI communicator. MPI-D is deliberately "a
	// convenience high-level library ... built on top of MPI".
	Comm *mpi.Comm
	// Reducers lists the ranks acting as reducers; partition p is owned
	// by Reducers[p].
	Reducers []int
	// Senders lists the ranks that will call Send (mappers). Reducers use
	// it to count end-of-stream markers. Default: every rank not in
	// Reducers.
	Senders []int
	// Combiner optionally merges values per key before transmission.
	Combiner CombineFunc
	// Partitioner overrides the hash-mod partition selector.
	Partitioner PartitionFunc
	// SpillThreshold is the buffered payload size in bytes that triggers
	// a spill ("when the hash table buffer exceeds a particular size").
	// The payload is every buffered value plus each distinct key once when
	// a Combiner or SortValues groups the buffer by key; without either, it
	// counts each pair's key. Bookkeeping is not counted: about 80 bytes per
	// distinct key, and about 20 per pair while a spill's keys are mostly
	// distinct, so small pairs hold more memory than the threshold. Default
	// 1 MiB, at most 64 MiB.
	SpillThreshold int
	// SortValues sorts each key's value list during realignment, the
	// on-demand sorting hook from §IV.A. Off by default.
	SortValues bool

	// Telemetry observes the instance. Metrics receives the mpid.spill /
	// mpid.realign / mpid.recv.merge timers; Tracer records
	// spill/realign/merge spans as roots. Nothing here emits events.
	obs.Telemetry
}

// Counters expose what the library did, for tests, the harness and the
// ablation benchmarks.
type Counters struct {
	// PairsSent counts Send calls.
	PairsSent int64
	// PairsCombined counts pairs eliminated by the combiner.
	PairsCombined int64
	// Spills counts spill rounds (including the final flush).
	Spills int64
	// MessagesSent counts MPI messages carrying partition data.
	MessagesSent int64
	// BytesSent counts realigned payload bytes shipped.
	BytesSent int64
	// PairsReceived counts pairs decoded on the receive side.
	PairsReceived int64
	// BytesReceived counts realigned payload bytes taken off the transport.
	BytesReceived int64
}

// D is one rank's MPI-D instance.
type D struct {
	cfg       Config
	comm      *mpi.Comm
	isSender  bool
	isReducer bool

	// Send side.
	buf       *arenaBuffer
	sendOpen  bool
	finalized bool

	// Receive side.
	recvState *receiver

	// Observability (all nil-safe when Config.Metrics is unset).
	spillTimer   *metrics.Timer
	realignTimer *metrics.Timer
	mergeTimer   *metrics.Timer

	counters Counters
}

// Init creates the MPI-D environment on this rank — MPI_D_Init. Every rank
// of the communicator participating in the exchange must call it with an
// equivalent configuration.
func Init(cfg Config) (*D, error) {
	if cfg.Comm == nil {
		return nil, errors.New("mpid: Config.Comm is required")
	}
	if len(cfg.Reducers) == 0 {
		return nil, errors.New("mpid: Config.Reducers is required")
	}
	size := cfg.Comm.Size()
	inReducers := make(map[int]bool, len(cfg.Reducers))
	for _, r := range cfg.Reducers {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("mpid: reducer rank %d out of range [0,%d)", r, size)
		}
		if inReducers[r] {
			return nil, fmt.Errorf("mpid: reducer rank %d listed twice", r)
		}
		inReducers[r] = true
	}
	if cfg.Senders == nil {
		for r := 0; r < size; r++ {
			if !inReducers[r] {
				cfg.Senders = append(cfg.Senders, r)
			}
		}
	}
	inSenders := make(map[int]bool, len(cfg.Senders))
	for _, r := range cfg.Senders {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("mpid: sender rank %d out of range [0,%d)", r, size)
		}
		if inSenders[r] {
			return nil, fmt.Errorf("mpid: sender rank %d listed twice", r)
		}
		inSenders[r] = true
	}
	if cfg.SpillThreshold <= 0 {
		cfg.SpillThreshold = 1 << 20
	}
	if cfg.SpillThreshold > maxSpillThreshold {
		return nil, fmt.Errorf("mpid: SpillThreshold %d above %d", cfg.SpillThreshold, maxSpillThreshold)
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = HashPartitioner
	}
	rank := cfg.Comm.Rank()
	d := &D{
		cfg:       cfg,
		comm:      cfg.Comm,
		isSender:  inSenders[rank],
		isReducer: inReducers[rank],
		sendOpen:  inSenders[rank],
	}
	d.spillTimer = cfg.Metrics.Timer("mpid.spill")
	d.realignTimer = cfg.Metrics.Timer("mpid.realign")
	d.mergeTimer = cfg.Metrics.Timer("mpid.recv.merge")
	if d.isSender {
		d.buf = arenaPool.Get().(*arenaBuffer)
		// Only a combiner or the value sort needs a key's whole list.
		d.buf.ungrouped = cfg.Combiner == nil && !cfg.SortValues
		d.buf.partition, d.buf.nParts = cfg.Partitioner, len(cfg.Reducers)
	}
	if d.isReducer {
		d.recvState = &receiver{d: d, sendersLeft: len(cfg.Senders)}
	}
	return d, nil
}

// Counters returns a snapshot of this instance's counters.
func (d *D) Counters() Counters { return d.counters }

// ReceivedCap returns the capacity of the buffers the received messages
// arrived in, which Recv's slices alias: Counters().BytesReceived or more,
// where a transport delivers a message in a larger buffer. It is final once
// Recv has returned its first key, and 0 on a rank that is no reducer.
func (d *D) ReceivedCap() int {
	if d.recvState == nil {
		return 0
	}
	return d.recvState.held
}

// IsSender reports whether this rank may call Send.
func (d *D) IsSender() bool { return d.isSender }

// IsReducer reports whether this rank may call Recv.
func (d *D) IsReducer() bool { return d.isReducer }

// partitionOwner returns the rank owning partition p.
func (d *D) partitionOwner(p int) int { return d.cfg.Reducers[p] }

// numPartitions returns the partition count (= number of reducers).
func (d *D) numPartitions() int { return len(d.cfg.Reducers) }

// Finalize flushes buffered pairs, emits end-of-stream to every reducer and
// marks the instance finalized — MPI_D_Finalize. It is idempotent. An
// instance whose Finalize fails (an aborted world) keeps its send buffer,
// which is then simply garbage.
func (d *D) Finalize() error {
	if d.finalized {
		return nil
	}
	if err := d.CloseSend(); err != nil {
		return err
	}
	// The arena goes back for the next job's Init. Send, Flush and CloseSend
	// all return before they reach d.buf on a finalized instance.
	if d.buf != nil {
		d.buf.reset()
		arenaPool.Put(d.buf)
	}
	d.buf = nil
	d.finalized = true
	return nil
}

// CloseSend flushes this rank's buffer and tells every reducer this sender
// is done, without tearing down the receive side. A rank that both sends
// and receives calls CloseSend before draining Recv.
func (d *D) CloseSend() error {
	if !d.isSender || !d.sendOpen {
		return nil
	}
	if err := d.spill(); err != nil {
		return err
	}
	for p := 0; p < d.numPartitions(); p++ {
		if err := d.comm.Send(d.partitionOwner(p), DoneTag, nil); err != nil {
			return err
		}
	}
	d.sendOpen = false
	return nil
}

// --------------------------------------------------------------------------
// Partitioners

// HashPartitioner is the default hash-mod partition selector. The hash is
// FNV-1a; partition = hash mod n, mirroring Hadoop's
// (key.hashCode() & MaxInt) % numReduceTasks.
func HashPartitioner(key []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}

// SampleCuts derives at most n-1 range boundaries from a key sample, the
// TeraSort recipe: sort the sample and take evenly spaced order statistics,
// so each resulting range holds roughly the same share of the sampled
// distribution however skewed it is. Adjacent duplicate boundaries (a key
// so hot it spans several quantiles) are collapsed, so heavily skewed
// samples may yield fewer cuts — correctness is unaffected, equal keys
// always land in one partition. The sample is not modified.
func SampleCuts(sample [][]byte, n int) [][]byte {
	if n <= 1 || len(sample) == 0 {
		return nil
	}
	sorted := make([][]byte, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return kv.Compare(sorted[i], sorted[j]) < 0 })
	var cuts [][]byte
	for i := 1; i < n; i++ {
		cut := sorted[i*len(sorted)/n]
		if len(cuts) > 0 && kv.Compare(cuts[len(cuts)-1], cut) == 0 {
			continue
		}
		cuts = append(cuts, append([]byte(nil), cut...))
	}
	return cuts
}

// RangePartitioner builds a PartitionFunc from sorted range boundaries
// (normally SampleCuts output): keys below cuts[0] map to partition 0, keys
// in [cuts[i-1], cuts[i]) to partition i, keys at or above the last cut to
// partition len(cuts). Concatenating reducer outputs in partition order
// then yields a globally sorted sequence. The function is pure and
// deterministic, so every engine running the same job partitions
// identically — a requirement of the cross-engine equality gates.
func RangePartitioner(cuts [][]byte) PartitionFunc {
	owned := make([][]byte, len(cuts))
	prefixes := make([]uint64, len(cuts))
	for i, c := range cuts {
		owned[i] = append([]byte(nil), c...)
		prefixes[i] = kv.Prefix(c)
	}
	return func(key []byte, n int) int {
		// The first cut above key, as sort.Search would find it, without
		// the call through a closure per probe. Key prefixes decide unless
		// they are equal.
		kp := kv.Prefix(key)
		p, hi := 0, len(owned)
		for p < hi {
			m := int(uint(p+hi) >> 1)
			if kp < prefixes[m] || kp == prefixes[m] && bytes.Compare(key, owned[m]) < 0 {
				hi = m
			} else {
				p = m + 1
			}
		}
		if p >= n {
			p = n - 1
		}
		return p
	}
}

// sortValueList orders a value list lexicographically (SortValues option).
func sortValueList(values [][]byte) {
	slices.SortFunc(values, bytes.Compare)
}
