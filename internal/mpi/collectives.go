// Collective operations over a communicator: Barrier, Bcast, Reduce,
// Allreduce, Gather, Scatter, Allgather, Alltoall(v) and Sendrecv.
//
// # The call-order contract
//
// Every true collective here (everything except Sendrecv) must be
// called by every rank of the communicator, in the same program order.
// That contract is what lets tag allocation be a plain per-rank counter
// (nextCollTag): rank k's third collective call and rank j's third
// collective call are the same logical operation, so they agree on the
// reserved tag without any negotiation traffic. Interleaving collectives
// with point-to-point traffic is safe — collectives use the reserved tag
// space at collTagBase and above, which Send/Recv reject.
//
// # Algorithms
//
// Barrier is the dissemination algorithm (log2(n) rounds of pairwise
// notifications); Bcast and Reduce walk binomial trees rooted at the
// caller-chosen root; Allreduce is reduce-to-0 plus broadcast; the
// gather/scatter/all-to-all family uses eager linear exchanges, which the
// non-blocking eager transports make deadlock-free (send-all then
// receive-all never blocks on a peer's send).

package mpi

import (
	"encoding/binary"
	"fmt"
)

// ReduceFunc combines two payloads into one. It must be associative and
// commutative (the reduction tree imposes no order guarantee). It may reuse
// either input's storage.
type ReduceFunc func(a, b []byte) []byte

// nextCollTag reserves the tag for the next collective operation. Every rank
// calls collectives in the same program order, so per-rank counters agree.
// Wrapping keeps tags in the reserved space; 2^20 in-flight collectives
// would have to overlap for a clash, which the call-order contract forbids.
func (c *Comm) nextCollTag() int {
	tag := collTagBase + (c.collSeq % (1 << 20))
	c.collSeq++
	return tag
}

// Barrier blocks until every rank has entered it. Dissemination algorithm:
// log2(n) rounds of pairwise notifications.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	n := c.Size()
	for k := 1; k < n; k <<= 1 {
		to := (c.rank + k) % n
		from := (c.rank - k + n) % n
		if err := c.send(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.crecv(from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the payload (on root, data itself). Non-root callers pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := validateRank(root, c.Size()); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	n := c.Size()
	vrank := (c.rank - root + n) % n

	// Receive from the parent (clear lowest set bit), unless root.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			data2, err := c.crecv(parent, tag)
			if err != nil {
				return nil, err
			}
			data = data2
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			if err := c.send(child, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// Reduce combines each rank's contribution with op along a binomial tree.
// The combined result is returned on root; other ranks get nil.
func (c *Comm) Reduce(root int, data []byte, op ReduceFunc) ([]byte, error) {
	if err := validateRank(root, c.Size()); err != nil {
		return nil, err
	}
	if op == nil {
		return nil, fmt.Errorf("mpi: Reduce needs a ReduceFunc")
	}
	tag := c.nextCollTag()
	n := c.Size()
	vrank := (c.rank - root + n) % n

	acc := data
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask == 0 {
			peer := vrank | mask
			if peer < n {
				peerData, err := c.crecv((peer+root)%n, tag)
				if err != nil {
					return nil, err
				}
				acc = op(acc, peerData)
			}
		} else {
			parent := (vrank - mask + root) % n
			if err := c.send(parent, tag, acc); err != nil {
				return nil, err
			}
			acc = nil
			break
		}
	}
	if c.rank == root {
		return acc, nil
	}
	return nil, nil
}

// Allreduce combines all contributions and returns the result on every rank
// (reduce-to-0 followed by broadcast).
func (c *Comm) Allreduce(data []byte, op ReduceFunc) ([]byte, error) {
	acc, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, acc)
}

// Gather collects each rank's payload at root, indexed by rank. Non-root
// callers receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := validateRank(root, c.Size()); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	n := c.Size()
	if c.rank != root {
		return nil, c.send(root, tag, data)
	}
	out := make([][]byte, n)
	out[root] = data
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		data, err := c.crecv(i, tag)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// Scatter distributes parts[i] from root to rank i and returns this rank's
// part. Only root's parts argument is consulted; it must have one entry per
// rank.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if err := validateRank(root, c.Size()); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	n := c.Size()
	if c.rank == root {
		if len(parts) != n {
			return nil, fmt.Errorf("mpi: Scatter needs %d parts, got %d", n, len(parts))
		}
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			if err := c.send(i, tag, parts[i]); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	data, err := c.crecv(root, tag)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Allgather collects every rank's payload on every rank, indexed by rank.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	tag := c.nextCollTag()
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = data
	// Eager sends cannot block, so send-all then receive-all is safe.
	for i := 0; i < n; i++ {
		if i == c.rank {
			continue
		}
		if err := c.send(i, tag, data); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if i == c.rank {
			continue
		}
		data, err := c.crecv(i, tag)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// Alltoall sends parts[j] to rank j and returns the payloads received from
// every rank, indexed by source. This is the mapper-to-reducer communication
// pattern the paper discusses in §III.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	n := c.Size()
	if len(parts) != n {
		return nil, fmt.Errorf("mpi: Alltoall needs %d parts, got %d", n, len(parts))
	}
	tag := c.nextCollTag()
	out := make([][]byte, n)
	out[c.rank] = parts[c.rank]
	for i := 0; i < n; i++ {
		if i == c.rank {
			continue
		}
		if err := c.send(i, tag, parts[i]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if i == c.rank {
			continue
		}
		data, err := c.crecv(i, tag)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Common reduce operators

// SumInt64 adds two 8-byte big-endian signed integers.
func SumInt64(a, b []byte) []byte {
	return EncodeInt64(DecodeInt64(a) + DecodeInt64(b))
}

// MaxInt64 keeps the larger of two encoded integers.
func MaxInt64(a, b []byte) []byte {
	if DecodeInt64(a) >= DecodeInt64(b) {
		return a
	}
	return b
}

// MinInt64 keeps the smaller of two encoded integers.
func MinInt64(a, b []byte) []byte {
	if DecodeInt64(a) <= DecodeInt64(b) {
		return a
	}
	return b
}

// EncodeInt64 renders v as the 8-byte value the integer operators consume.
func EncodeInt64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeInt64 parses an 8-byte operator value; it panics on malformed input
// because operator payloads are runtime-internal, never external data.
func DecodeInt64(b []byte) int64 {
	if len(b) != 8 {
		panic(fmt.Sprintf("mpi: integer operator payload must be 8 bytes, got %d", len(b)))
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Sendrecv performs a simultaneous send to `to` and receive from `from`
// without deadlocking (MPI_Sendrecv). Both directions use the same tag.
func (c *Comm) Sendrecv(to int, sendData []byte, from, tag int) ([]byte, Status, error) {
	if err := validateRank(to, c.Size()); err != nil {
		return nil, Status{}, err
	}
	if from != AnySource {
		if err := validateRank(from, c.Size()); err != nil {
			return nil, Status{}, err
		}
	}
	if err := validateTag(tag); err != nil {
		return nil, Status{}, err
	}
	// Sends are eager, so send-then-receive cannot deadlock.
	if err := c.send(to, tag, sendData); err != nil {
		return nil, Status{}, err
	}
	return c.recv(from, tag)
}

// Alltoallv is the variable-size all-to-all: parts[j] (any length,
// including empty) goes to rank j; the return value holds what each rank
// sent here. This matches MPI-D's realigned-partition exchange, where
// partition sizes differ per destination.
func (c *Comm) Alltoallv(parts [][]byte) ([][]byte, error) {
	// Payload sizes differ, but the communication pattern is Alltoall's;
	// empty parts still travel so the receive count stays uniform.
	return c.Alltoall(parts)
}
