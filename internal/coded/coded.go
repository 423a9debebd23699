// Package coded is a coded-shuffle prototype in the style of Coded
// MapReduce / Coded Distributed Computing (Li, Maddah-Ali, Avestimehr):
// map splits are replicated across r nodes, the redundant intermediate
// data is combine-encoded into XOR packets, and each packet is multicast
// so that one transmission serves r destinations at once — trading r×
// redundant map computation for an ~r× reduction in shipped shuffle
// bytes. It answers the paper's shuffle-volume question from the other
// direction: instead of making the shuffle transport faster (MPI-D), it
// makes the shuffle smaller.
//
// The prototype runs N logical nodes on an in-process MPI world; every
// node is both a mapper and a reducer (partition p is owned by node
// p mod N). Splits are assigned to batches — the lexicographically
// ordered r-subsets of nodes — and every node of a batch maps all of the
// batch's splits, so each node of a batch holds a byte-identical copy of
// the batch's intermediate segments (map functions are deterministic and
// the segments are built from sorted, combined runs). That redundancy is
// what the coding exploits:
//
//   - For every (r+1)-subset S of nodes and every sender m ∈ S, m
//     multicasts one packet to the other r members. The packet is the XOR
//     of r parts, one per destination k ∈ S∖{m}: part idx(m, T) of
//     segment seg[T][k] where T = S∖{k}. Each destination already holds
//     the other r−1 parts (it mapped those batches itself), cancels them
//     out of the XOR, and keeps the one part it is missing.
//   - After the schedule completes each node has all r parts of every
//     segment destined to it and reassembles them by concatenation.
//
// With r = 1 there is nothing to encode and the schedule degenerates to
// exactly today's shuffle: each node combines its own splits' output and
// unicasts every other node's partition data to it once — the per-node-
// combined baseline (the MPI-D engine's NodeArena path).
//
// Stats separates MulticastBytes (each packet's length counted once per
// Mcast, the accounting internal/mpi documents for multicast-capable
// fabrics) from UnicastBytes (r = 1 traffic and loss-recovery re-sends);
// ShippedBytes is their sum. The chaos knob Options.Loss silences one
// node's multicasts mid-schedule; every rank derives the same recovery
// plan — for each starved destination the lowest-ranked surviving holder
// of the missing part unicasts it raw — so a lost multicaster degrades
// coded delivery to unicast re-fetches without changing job output.
package coded

import (
	"errors"
	"fmt"
	"sort"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/shuffle"
)

// User tags for the coded exchange, well clear of mapred's framework tags.
const (
	codedTag         = 7001 // coded multicast packets and r=1 unicast segments
	codedFallbackTag = 7002 // raw parts re-sent after a lost multicaster
)

// NodeLoss describes the chaos scenario: Node stops multicasting after it
// has sourced AfterPackets coded packets (it keeps receiving and keeps
// serving unicast fallbacks are NOT expected of it — recovery uses the
// other replicas). Requires Replication >= 2: with r = 1 no other node
// holds the lost data.
type NodeLoss struct {
	// Node is the rank that goes multicast-silent.
	Node int
	// AfterPackets is how many packets Node sources before going silent;
	// 0 silences it from the start.
	AfterPackets int
}

// Options configures a coded run.
type Options struct {
	// Nodes is the number of logical nodes N; every node maps and
	// reduces. Required (>= 1).
	Nodes int
	// Replication is the map replication factor r: each split is mapped
	// by r nodes. 1 disables coding (plain per-node-combined unicast
	// shuffle); r >= 2 requires Nodes >= r+1 so multicast groups of
	// size r+1 exist.
	Replication int
	// Metrics, when non-nil, receives coded.* counters mirroring Stats
	// and is handed to Job.ObservedCombiner.
	Metrics *metrics.Registry
	// Loss, when non-nil, injects a multicast-silent node (see NodeLoss).
	Loss *NodeLoss
}

// Stats is the byte accounting of one coded run, aggregated over nodes.
type Stats struct {
	// MapExecutions counts map-task executions including replicas:
	// len(splits) * Replication.
	MapExecutions int64
	// Packets is the number of coded multicast packets actually sent.
	Packets int64
	// MulticastBytes sums len(packet) once per multicast, the cost on a
	// multicast-capable fabric however many destinations each packet has.
	MulticastBytes int64
	// UnicastBytes sums point-to-point segment bytes: all shuffle traffic
	// at r = 1, and loss-recovery part re-sends at r >= 2.
	UnicastBytes int64
	// ShippedBytes = MulticastBytes + UnicastBytes, the quantity the
	// shuffle-byte experiments compare across engines.
	ShippedBytes int64
}

// Run executes the job under coded shuffle and returns its result — output
// equality with mapred.Run (canonical Pairs) is the correctness gate — plus
// the byte accounting. Job knobs that configure the MPI-D transport
// (Async, SpillThreshold, MaxTaskAttempts...) do not apply: the
// prototype has its own static exchange.
func Run(job mapred.Job, splits []mapred.Split, opt Options) (*mapred.Result, *Stats, error) {
	if job.Mapper == nil || job.Reducer == nil {
		return nil, nil, errors.New("coded: job needs Mapper and Reducer")
	}
	n, r := opt.Nodes, opt.Replication
	if n < 1 {
		return nil, nil, fmt.Errorf("coded: need at least one node, got %d", n)
	}
	if r < 1 || r > n {
		return nil, nil, fmt.Errorf("coded: replication %d outside [1, nodes=%d]", r, n)
	}
	if r >= 2 && n < r+1 {
		return nil, nil, fmt.Errorf("coded: replication %d needs at least %d nodes for multicast groups, got %d", r, r+1, n)
	}
	if opt.Loss != nil {
		if r < 2 {
			return nil, nil, errors.New("coded: node loss needs replication >= 2 — with r=1 no replica holds the lost data")
		}
		if opt.Loss.Node < 0 || opt.Loss.Node >= n {
			return nil, nil, fmt.Errorf("coded: lost node %d outside [0, %d)", opt.Loss.Node, n)
		}
	}
	if job.NumReducers <= 0 {
		job.NumReducers = 1
	}
	part := job.Partitioner
	if part == nil {
		part = core.HashPartitioner
	}
	comb := shuffle.Combiner(job.Combiner)
	if job.ObservedCombiner != nil {
		comb = shuffle.Combiner(job.ObservedCombiner(opt.Metrics))
	}

	batches := subsetsOf(n, r) // batch b = the r nodes mapping splits s with s % len(batches) == b
	result := &mapred.Result{ByReducer: make([][]kv.Pair, job.NumReducers), MapTasks: len(splits)}
	stats := &Stats{}

	err := mpi.Run(n, func(c *mpi.Comm) error {
		nd := &node{
			c: c, job: job, splits: splits, opt: opt,
			part: part, comb: comb, batches: batches,
		}
		return nd.run(result, stats)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("coded: job %q: %w", job.Name, err)
	}
	stats.ShippedBytes = stats.MulticastBytes + stats.UnicastBytes
	if reg := opt.Metrics; reg != nil {
		reg.Counter("coded.map_executions").Add(stats.MapExecutions)
		reg.Counter("coded.packets").Add(stats.Packets)
		reg.Counter("coded.multicast_bytes").Add(stats.MulticastBytes)
		reg.Counter("coded.unicast_bytes").Add(stats.UnicastBytes)
		reg.Counter("coded.shipped_bytes").Add(stats.ShippedBytes)
	}
	return result, stats, nil
}

// node is one rank's run state.
type node struct {
	c       *mpi.Comm
	job     mapred.Job
	splits  []mapred.Split
	opt     Options
	part    core.PartitionFunc
	comb    shuffle.Combiner
	batches [][]int

	// seg[b][k] is batch b's serialized segment for destination node k:
	// the batch's combined, sorted runs of every partition k owns, each
	// framed with AppendBytes in ascending partition order. Only batches
	// this node mapped are populated; segments received (decoded or via
	// fallback) land in recvSeg[b].
	seg     map[int][][]byte
	recvSeg map[int][]byte

	mapExecs               int64
	packets                int64
	mcastBytes, ucastBytes int64
}

func (nd *node) run(result *mapred.Result, stats *Stats) error {
	if err := nd.mapPhase(); err != nil {
		return err
	}
	var err error
	if nd.opt.Replication == 1 {
		err = nd.unicastShuffle()
	} else {
		err = nd.codedShuffle()
	}
	if err != nil {
		return err
	}
	out, err := nd.reducePhase()
	if err != nil {
		return err
	}
	return nd.gather(out, result, stats)
}

// ---------------------------------------------------------------------------
// Map phase

// mapPhase runs every split of every batch this node belongs to and builds
// the per-destination segments. Replicas build byte-identical segments:
// splits are mapped in ascending order, runs are stably sorted, and the
// combiner is pure — the determinism the coding relies on.
func (nd *node) mapPhase() error {
	me := nd.c.Rank()
	nd.seg = make(map[int][][]byte)
	nd.recvSeg = make(map[int][]byte)
	for b, members := range nd.batches {
		if !contains(members, me) {
			continue
		}
		// pairs[p] accumulates partition p's raw emissions in map order.
		pairs := make([][]kv.Pair, nd.job.NumReducers)
		emit := func(key, value []byte) error {
			p := nd.part(key, nd.job.NumReducers)
			pairs[p] = append(pairs[p], kv.Pair{Key: key, Value: value}.Clone())
			return nil
		}
		for s := b; s < len(nd.splits); s += len(nd.batches) {
			nd.mapExecs++
			err := nd.splits[s].Records(func(k, v []byte) error {
				return nd.job.Mapper.Map(k, v, emit)
			})
			if err != nil {
				return fmt.Errorf("map split %d: %w", s, err)
			}
		}
		nd.seg[b] = make([][]byte, nd.c.Size())
		for k := 0; k < nd.c.Size(); k++ {
			var seg []byte
			for _, p := range ownedParts(k, nd.c.Size(), nd.job.NumReducers) {
				seg = kv.AppendBytes(seg, buildRun(pairs[p], nd.comb))
			}
			nd.seg[b][k] = seg
		}
	}
	return nil
}

// buildRun renders emissions as a sorted, combined run (the same shape as
// a hadoop map spill): keys in ascending order, values in emission order,
// multi-value groups passed through the combiner.
func buildRun(pairs []kv.Pair, comb shuffle.Combiner) []byte {
	sort.SliceStable(pairs, func(i, j int) bool {
		return kv.Compare(pairs[i].Key, pairs[j].Key) < 0
	})
	var run []byte
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && kv.Compare(pairs[j].Key, pairs[i].Key) == 0 {
			j++
		}
		values := make([][]byte, 0, j-i)
		for _, p := range pairs[i:j] {
			values = append(values, p.Value)
		}
		if comb != nil && len(values) > 1 {
			values = comb(pairs[i].Key, values)
		}
		run = kv.AppendKeyList(run, kv.KeyList{Key: pairs[i].Key, Values: values})
		i = j
	}
	return run
}

// ---------------------------------------------------------------------------
// r = 1: plain unicast shuffle

// unicastShuffle ships each remote destination's segment directly — the
// degenerate schedule coded delivery reduces to without replication.
// Empty segments are still sent to keep the schedule aligned.
func (nd *node) unicastShuffle() error {
	me := nd.c.Rank()
	for b, members := range nd.batches { // batch b = {b} when r = 1
		src := members[0]
		for k := 0; k < nd.c.Size(); k++ {
			if k == src {
				continue
			}
			switch me {
			case src:
				seg := nd.seg[b][k]
				if err := nd.c.Send(k, codedTag, seg); err != nil {
					return err
				}
				nd.ucastBytes += int64(len(seg))
			case k:
				data, _, err := nd.c.Recv(src, codedTag)
				if err != nil {
					return err
				}
				nd.recvSeg[b] = data
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// r >= 2: coded multicast shuffle

// packetHeader describes one coded packet: for each destination, the raw
// (unpadded) length of the part XORed in for it. Wire format:
// VLong ndests, then per destination (VLong dest, VLong rawLen), then the
// XOR body padded to the longest part.
type packetHeader struct {
	dests   []int
	rawLens []int
}

func (h packetHeader) encode(body []byte) []byte {
	out := kv.AppendVLong(nil, int64(len(h.dests)))
	for i, d := range h.dests {
		out = kv.AppendVLong(out, int64(d))
		out = kv.AppendVLong(out, int64(h.rawLens[i]))
	}
	return append(out, body...)
}

func decodePacket(data []byte) (packetHeader, []byte, error) {
	var h packetHeader
	nd64, n, err := kv.ReadVLong(data)
	if err != nil {
		return h, nil, fmt.Errorf("coded: corrupt packet header: %w", err)
	}
	data = data[n:]
	for i := int64(0); i < nd64; i++ {
		d, n, err := kv.ReadVLong(data)
		if err != nil {
			return h, nil, fmt.Errorf("coded: corrupt packet header: %w", err)
		}
		data = data[n:]
		l, n, err := kv.ReadVLong(data)
		if err != nil {
			return h, nil, fmt.Errorf("coded: corrupt packet header: %w", err)
		}
		data = data[n:]
		h.dests = append(h.dests, int(d))
		h.rawLens = append(h.rawLens, int(l))
	}
	return h, data, nil
}

// partOf slices part j of r from a segment: contiguous near-equal chunks,
// reassembled downstream by plain concatenation.
func partOf(seg []byte, j, r int) []byte {
	lo := j * len(seg) / r
	hi := (j + 1) * len(seg) / r
	return seg[lo:hi]
}

// codedShuffle walks the deterministic global schedule: every (r+1)-subset
// S in lexicographic order, every sender m ∈ S ascending. Sends are eager,
// so each rank can process the schedule sequentially without deadlock.
func (nd *node) codedShuffle() error {
	me, n, r := nd.c.Rank(), nd.c.Size(), nd.opt.Replication
	// parts[b] collects the r parts of batch b's segment for this node.
	parts := make(map[int][][]byte)
	lossSent := 0 // packets the lost node has sourced so far, tracked by every rank
	for _, s := range subsetsOf(n, r+1) {
		for _, m := range s {
			lost := nd.opt.Loss != nil && m == nd.opt.Loss.Node
			if lost {
				if lossSent < nd.opt.Loss.AfterPackets {
					lossSent++
					lost = false
				}
			}
			if lost {
				if err := nd.fallbackRound(s, m, parts); err != nil {
					return err
				}
				continue
			}
			switch {
			case me == m:
				if err := nd.sendPacket(s, m); err != nil {
					return err
				}
			case contains(s, me):
				if err := nd.recvPacket(s, m, parts); err != nil {
					return err
				}
			}
		}
	}
	// Reassemble received segments by concatenating their r parts.
	for b, members := range nd.batches {
		if contains(members, me) {
			continue
		}
		var seg []byte
		for j, p := range parts[b] {
			if p == nil {
				return fmt.Errorf("coded: node %d never received part %d of batch %d", me, j, b)
			}
			seg = append(seg, p...)
		}
		nd.recvSeg[b] = seg
	}
	return nil
}

// sendPacket multicasts packet (S, m) from this node: the XOR of one part
// per destination, padded to the longest.
func (nd *node) sendPacket(s []int, m int) error {
	h := packetHeader{}
	var raw [][]byte
	maxLen := 0
	for _, k := range s {
		if k == m {
			continue
		}
		t := without(s, k) // the batch whose segment k is missing; m ∈ t
		p := partOf(nd.seg[batchIndex(nd.batches, t)][k], indexOf(t, m), nd.opt.Replication)
		h.dests = append(h.dests, k)
		h.rawLens = append(h.rawLens, len(p))
		raw = append(raw, p)
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	body := make([]byte, maxLen)
	for _, p := range raw {
		for i := range p {
			body[i] ^= p[i]
		}
	}
	pkt := h.encode(body)
	if err := nd.c.Mcast(h.dests, codedTag, pkt); err != nil {
		return err
	}
	nd.packets++
	nd.mcastBytes += int64(len(pkt)) // one transmission, counted once
	return nil
}

// recvPacket receives packet (S, m), cancels the parts this node already
// holds (it mapped every other destination's batch) and keeps its own.
func (nd *node) recvPacket(s []int, m int, parts map[int][][]byte) error {
	me := nd.c.Rank()
	data, _, err := nd.c.Recv(m, codedTag)
	if err != nil {
		return err
	}
	h, xored, err := decodePacket(data)
	if err != nil {
		return err
	}
	// The payload may alias the sender's buffer on zero-copy transports;
	// decode into a private copy.
	body := append([]byte(nil), xored...)
	own := -1
	for i, k := range h.dests {
		if k == me {
			own = i
			continue
		}
		t := without(s, k)
		p := partOf(nd.seg[batchIndex(nd.batches, t)][k], indexOf(t, m), nd.opt.Replication)
		if len(p) != h.rawLens[i] {
			return fmt.Errorf("coded: node %d part for dest %d is %d bytes, packet says %d",
				me, k, len(p), h.rawLens[i])
		}
		for j := range p {
			body[j] ^= p[j]
		}
	}
	if own < 0 {
		return fmt.Errorf("coded: node %d missing from packet (%v, src %d)", me, s, m)
	}
	t := without(s, me)
	nd.storePart(parts, batchIndex(nd.batches, t), indexOf(t, m), body[:h.rawLens[own]])
	return nil
}

// fallbackRound replaces a silenced packet (S, L): for each destination k
// the missing raw part is re-sent point-to-point by the lowest-ranked
// surviving replica of k's batch. Every rank derives the identical plan
// from the schedule alone — no coordination with the lost node.
func (nd *node) fallbackRound(s []int, lostNode int, parts map[int][][]byte) error {
	me := nd.c.Rank()
	for _, k := range s {
		if k == lostNode {
			continue
		}
		t := without(s, k) // lostNode ∈ t; survivors of t also hold seg[t][k]
		holder := -1
		for _, h := range t {
			if h != lostNode {
				holder = h
				break
			}
		}
		j := indexOf(t, lostNode)
		switch me {
		case holder:
			p := partOf(nd.seg[batchIndex(nd.batches, t)][k], j, nd.opt.Replication)
			if err := nd.c.Send(k, codedFallbackTag, p); err != nil {
				return err
			}
			nd.ucastBytes += int64(len(p))
		case k:
			data, _, err := nd.c.Recv(holder, codedFallbackTag)
			if err != nil {
				return err
			}
			nd.storePart(parts, batchIndex(nd.batches, t), j, data)
		}
	}
	return nil
}

func (nd *node) storePart(parts map[int][][]byte, b, j int, p []byte) {
	if parts[b] == nil {
		parts[b] = make([][]byte, nd.opt.Replication)
	}
	if p == nil {
		// A zero-length part still counts as received; keep it non-nil so
		// reassembly can tell "empty" from "missing".
		p = []byte{}
	}
	parts[b][j] = p
}

// ---------------------------------------------------------------------------
// Reduce phase and collection

// reducePhase merges, for each owned partition, that partition's run from
// every batch segment — locally built or received — and reduces the merged
// groups in key order.
func (nd *node) reducePhase() (map[int][]byte, error) {
	me := nd.c.Rank()
	out := make(map[int][]byte)
	owned := ownedParts(me, nd.c.Size(), nd.job.NumReducers)
	for _, p := range owned {
		var runs []shuffle.Run
		for b, members := range nd.batches {
			var seg []byte
			if contains(members, me) {
				seg = nd.seg[b][me]
			} else {
				seg = nd.recvSeg[b]
			}
			run, err := partitionRun(seg, owned, p)
			if err != nil {
				return nil, fmt.Errorf("batch %d partition %d: %w", b, p, err)
			}
			if len(run) > 0 {
				runs = append(runs, shuffle.Run{Data: run, Seq: b})
			}
		}
		var buf []byte
		emit := func(key, value []byte) error {
			buf = kv.AppendPair(buf, kv.Pair{Key: key, Value: value})
			return nil
		}
		err := shuffle.MergeRuns(runs, nd.comb, func(kl kv.KeyList) error {
			return nd.job.Reducer.Reduce(kl.Key, kl.Values, emit)
		})
		if err != nil {
			return nil, fmt.Errorf("reduce partition %d: %w", p, err)
		}
		out[p] = buf
	}
	return out, nil
}

// gather collects every node's reduce outputs and byte accounting at rank 0
// and fills the shared result.
func (nd *node) gather(out map[int][]byte, result *mapred.Result, stats *Stats) error {
	blob := kv.AppendVLong(nil, nd.mapExecs)
	blob = kv.AppendVLong(blob, nd.packets)
	blob = kv.AppendVLong(blob, nd.mcastBytes)
	blob = kv.AppendVLong(blob, nd.ucastBytes)
	owned := ownedParts(nd.c.Rank(), nd.c.Size(), nd.job.NumReducers)
	blob = kv.AppendVLong(blob, int64(len(owned)))
	for _, p := range owned {
		blob = kv.AppendVLong(blob, int64(p))
		blob = kv.AppendBytes(blob, out[p])
	}
	blobs, err := nd.c.Gather(0, blob)
	if err != nil {
		return err
	}
	if nd.c.Rank() != 0 {
		return nil
	}
	for _, b := range blobs {
		fields := []*int64{&stats.MapExecutions, &stats.Packets, &stats.MulticastBytes, &stats.UnicastBytes}
		for _, f := range fields {
			v, n, err := kv.ReadVLong(b)
			if err != nil {
				return fmt.Errorf("coded: corrupt stats blob: %w", err)
			}
			*f += v
			b = b[n:]
		}
		nParts, n, err := kv.ReadVLong(b)
		if err != nil {
			return fmt.Errorf("coded: corrupt result blob: %w", err)
		}
		b = b[n:]
		for i := int64(0); i < nParts; i++ {
			p64, n, err := kv.ReadVLong(b)
			if err != nil {
				return fmt.Errorf("coded: corrupt result blob: %w", err)
			}
			b = b[n:]
			framed, n, err := kv.ReadBytes(b)
			if err != nil {
				return fmt.Errorf("coded: corrupt result blob: %w", err)
			}
			b = b[n:]
			pairs, err := decodeFramedPairs(framed)
			if err != nil {
				return err
			}
			result.ByReducer[p64] = pairs
		}
	}
	return nil
}

func decodeFramedPairs(b []byte) ([]kv.Pair, error) {
	var pairs []kv.Pair
	for len(b) > 0 {
		p, n, err := kv.ReadPair(b)
		if err != nil {
			return nil, fmt.Errorf("coded: corrupt reduce output: %w", err)
		}
		pairs = append(pairs, p.Clone())
		b = b[n:]
	}
	return pairs, nil
}

// ---------------------------------------------------------------------------
// Subset and partition helpers

// subsetsOf enumerates the size-k subsets of [0, n) in lexicographic
// order, each sorted ascending. The order is the global contract: batch
// indices and the multicast schedule both derive from it.
func subsetsOf(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// batchIndex finds the batch holding exactly the given sorted member set.
func batchIndex(batches [][]int, members []int) int {
	for b, m := range batches {
		if equalInts(m, members) {
			return b
		}
	}
	panic(fmt.Sprintf("coded: no batch for members %v", members))
}

// without returns sorted subset s minus one element.
func without(s []int, x int) []int {
	out := make([]int, 0, len(s)-1)
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func indexOf(s []int, x int) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	panic(fmt.Sprintf("coded: %d not in subset %v", x, s))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ownedParts lists the partitions node k owns: p in [0, numReducers) with
// p mod n == k, ascending.
func ownedParts(k, n, numReducers int) []int {
	var out []int
	for p := k; p < numReducers; p += n {
		out = append(out, p)
	}
	return out
}

// partitionRun extracts partition p's framed run from a segment whose
// frames follow the owner's ascending partition order.
func partitionRun(seg []byte, owned []int, p int) ([]byte, error) {
	for _, q := range owned {
		run, n, err := kv.ReadBytes(seg)
		if err != nil {
			return nil, fmt.Errorf("coded: corrupt segment: %w", err)
		}
		if q == p {
			return run, nil
		}
		seg = seg[n:]
	}
	return nil, fmt.Errorf("coded: partition %d not framed in segment", p)
}
