package core

import "sync"

// NodeArena is a node-shared send buffer: the in-node-combining idea lifted
// into MPI-D. Where each sender rank normally combines only its own pairs
// before spilling, co-located ranks handed the same NodeArena buffer into
// one arena, so the incremental combiner folds duplicate keys across every
// map task on the node and each key's list ships once per node instead of
// once per rank — strictly fewer shuffle bytes for any workload with
// cross-rank key overlap, at the cost of serializing the co-located
// senders' buffer access behind one mutex.
//
// Usage: create one NodeArena per physical node and set core.Config.NodeArena
// to it on every sender rank of that node (mapred.Job.NodeCombine does this
// for the in-process world, which is one node by construction). Semantics:
//
//   - Send buffers into the shared arena under the arena lock; the spill
//     threshold applies to the node's aggregate buffered bytes.
//   - A spill (threshold or Flush) ships the whole shared buffer from
//     whichever rank triggered it; that rank's counters record the traffic,
//     and aggregate counters across senders stay correct.
//   - CloseSend leaves leftovers buffered until the last co-located member
//     closes, which spills them; every member still emits its own DoneTag
//     markers, and reducers only declare end-of-stream once every sender's
//     marker arrived, so the late shared spill is always consumed.
type NodeArena struct {
	mu      sync.Mutex
	buf     *arenaBuffer
	members int
}

// NewNodeArena creates the shared buffer for one node's sender ranks.
func NewNodeArena() *NodeArena {
	return &NodeArena{buf: newArenaBuffer()}
}

// attach registers one member rank and hands it the shared buffer.
func (na *NodeArena) attach() *arenaBuffer {
	na.mu.Lock()
	defer na.mu.Unlock()
	na.members++
	return na.buf
}

// detachLocked deregisters a member and reports whether it was the last
// one; the caller holds na.mu and, when last, must spill the leftovers
// before releasing it.
func (na *NodeArena) detachLocked() bool {
	na.members--
	return na.members == 0
}
