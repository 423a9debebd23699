// Package dfs is a miniature Hadoop distributed file system: the storage
// substrate Hadoop jobs read from and write to, reimplemented from scratch
// so the MapReduce framework in this repository can exercise the same
// block-oriented I/O path the paper's system assumes ("we distribute all
// input data across all nodes to guarantee the data accessing locally as
// in Hadoop", §IV.A).
//
// Faithful to the HDFS design points that matter here:
//
//   - a NameNode holds metadata only: files are sequences of fixed-size
//     blocks, each block replicated on several DataNodes;
//   - writes cut the stream into blocks and place replicas round-robin
//     across DataNodes (rack-unaware, as a single-switch cluster is);
//   - reads fetch block-by-block, preferring a hinted "local" DataNode and
//     failing over to any live replica;
//   - DataNodes can fail; reads survive while any replica lives, and the
//     NameNode can report under-replicated blocks for re-replication.
//
// Storage is in-memory (the simulators model disk timing; this package
// models structure and fault behaviour).
package dfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/metrics"
)

// Errors returned by the file system.
var (
	ErrNotFound     = errors.New("dfs: file not found")
	ErrExists       = errors.New("dfs: file already exists")
	ErrBlockLost    = errors.New("dfs: all replicas of a block are lost")
	ErrDataNodeDown = errors.New("dfs: datanode is down")
	ErrWriterClosed = errors.New("dfs: writer already closed")
	ErrNoDataNodes  = errors.New("dfs: no datanodes available")
	ErrBlockMissing = errors.New("dfs: datanode does not hold block")
)

// Config sets file system parameters.
type Config struct {
	// BlockSize is the block size in bytes (default 64 MB, the paper's
	// setting).
	BlockSize int64
	// Replication is the replica count per block (HDFS default 3).
	Replication int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	return c
}

// BlockID identifies one block of one file.
type BlockID struct {
	Path  string
	Index int
}

// String renders the id like an HDFS block name.
func (b BlockID) String() string { return fmt.Sprintf("blk_%s_%d", b.Path, b.Index) }

// BlockInfo describes a block's placement, the information the MapReduce
// scheduler uses for locality.
type BlockInfo struct {
	ID        BlockID
	Size      int64
	Locations []int // datanode ids holding a replica, primary first
}

// FileInfo describes a file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks int
}

// DataNode stores block replicas. All methods are safe for concurrent use.
type DataNode struct {
	id   int
	comp string // injector component name, "dfs.datanode<id>"

	mu     sync.RWMutex
	blocks map[BlockID][]byte
	down   bool
	inj    *faults.Injector
	met    *metrics.Registry
}

// ID returns the datanode id.
func (d *DataNode) ID() int { return d.id }

// inject runs the injection point for one I/O operation. An injected crash
// fails the node for good (replicas lost, I/O rejected) before the error is
// returned, so readers observe an ordinary dead-node failure.
func (d *DataNode) inject(op, peer string) error {
	d.mu.RLock()
	inj := d.inj
	d.mu.RUnlock()
	err := inj.Check(d.comp, op, peer)
	if err == nil {
		return nil
	}
	if faults.IsCrash(err) {
		d.Fail()
	}
	return err
}

// store keeps a replica. The caller must not modify data afterwards.
func (d *DataNode) store(id BlockID, data []byte) error {
	if err := d.inject("write", id.Path); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return ErrDataNodeDown
	}
	d.blocks[id] = data
	d.met.Counter("dfs.writes").Inc()
	d.met.Counter("dfs.write_bytes").Add(int64(len(data)))
	return nil
}

// Read returns a replica's content.
func (d *DataNode) Read(id BlockID) ([]byte, error) {
	if err := d.inject("read", id.Path); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.down {
		return nil, ErrDataNodeDown
	}
	data, ok := d.blocks[id]
	if !ok {
		return nil, ErrBlockMissing
	}
	d.met.Counter("dfs.reads").Inc()
	d.met.Counter("dfs.read_bytes").Add(int64(len(data)))
	return data, nil
}

// BlockCount returns the number of replicas held.
func (d *DataNode) BlockCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.blocks)
}

// Fail simulates a crash: the node drops its replicas and rejects I/O.
func (d *DataNode) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = true
	d.blocks = make(map[BlockID][]byte)
}

// Recover brings a failed node back, empty.
func (d *DataNode) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = false
}

// Down reports whether the node is failed.
func (d *DataNode) Down() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.down
}

// NameNode holds the namespace and block map.
type NameNode struct {
	cfg Config
	met *metrics.Registry

	mu        sync.Mutex
	files     map[string]*fileMeta
	datanodes []*DataNode
	rr        int // round-robin placement cursor
}

type fileMeta struct {
	size   int64
	blocks []BlockInfo
}

// NewCluster creates a NameNode with n empty DataNodes.
func NewCluster(n int, cfg Config) (*NameNode, error) {
	if n <= 0 {
		return nil, ErrNoDataNodes
	}
	cfg = cfg.withDefaults()
	if cfg.Replication > n {
		cfg.Replication = n
	}
	nn := &NameNode{cfg: cfg, files: make(map[string]*fileMeta)}
	for i := 0; i < n; i++ {
		nn.datanodes = append(nn.datanodes, &DataNode{
			id:     i,
			comp:   fmt.Sprintf("dfs.datanode%d", i),
			blocks: make(map[BlockID][]byte),
		})
	}
	return nn, nil
}

// SetInjector wires a fault injector into every DataNode. Node i is the
// component "dfs.datanode<i>" with injection points "read" and "write"
// (peer = file path); an injected crash fails the node permanently, the
// same fault Fail simulates.
func (nn *NameNode) SetInjector(inj *faults.Injector) {
	for _, d := range nn.datanodes {
		d.mu.Lock()
		d.inj = inj
		d.mu.Unlock()
	}
}

// SetMetrics wires a metrics registry through the cluster: DataNode block
// I/O reports "dfs.reads"/"dfs.writes" counts and
// "dfs.read_bytes"/"dfs.write_bytes", replica failovers during block reads
// report "dfs.read_failovers", and re-replication reports
// "dfs.rereplications". A nil registry records nothing.
func (nn *NameNode) SetMetrics(m *metrics.Registry) {
	nn.met = m
	for _, d := range nn.datanodes {
		d.mu.Lock()
		d.met = m
		d.mu.Unlock()
	}
}

// Config returns the effective configuration.
func (nn *NameNode) Config() Config { return nn.cfg }

// DataNode returns datanode i.
func (nn *NameNode) DataNode(i int) *DataNode { return nn.datanodes[i] }

// DataNodeCount returns the cluster size.
func (nn *NameNode) DataNodeCount() int { return len(nn.datanodes) }

// liveNodes returns the ids of nodes currently up.
func (nn *NameNode) liveNodes() []int {
	var live []int
	for _, d := range nn.datanodes {
		if !d.Down() {
			live = append(live, d.id)
		}
	}
	return live
}

// placeReplicas chooses Replication distinct live datanodes round-robin.
func (nn *NameNode) placeReplicas() ([]int, error) {
	live := nn.liveNodes()
	if len(live) == 0 {
		return nil, ErrNoDataNodes
	}
	k := nn.cfg.Replication
	if k > len(live) {
		k = len(live)
	}
	locs := make([]int, 0, k)
	for i := 0; i < k; i++ {
		locs = append(locs, live[(nn.rr+i)%len(live)])
	}
	nn.rr = (nn.rr + 1) % len(live)
	return locs, nil
}

// Create opens a new file for writing. The writer buffers a block at a
// time and commits each block's replicas as the boundary is crossed.
func (nn *NameNode) Create(path string) (*FileWriter, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, dup := nn.files[path]; dup {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	nn.files[path] = &fileMeta{} // reserve the name
	return &FileWriter{nn: nn, path: path}, nil
}

// Stat describes a file.
func (nn *NameNode) Stat(path string) (FileInfo, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return FileInfo{Path: path, Size: f.size, Blocks: len(f.blocks)}, nil
}

// List returns all file paths, sorted.
func (nn *NameNode) List() []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	paths := make([]string, 0, len(nn.files))
	for p := range nn.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Delete removes a file and its replicas.
func (nn *NameNode) Delete(path string) error {
	nn.mu.Lock()
	f, ok := nn.files[path]
	if !ok {
		nn.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(nn.files, path)
	nn.mu.Unlock()
	for _, b := range f.blocks {
		for _, loc := range b.Locations {
			d := nn.datanodes[loc]
			d.mu.Lock()
			delete(d.blocks, b.ID)
			d.mu.Unlock()
		}
	}
	return nil
}

// Blocks returns a file's block placements.
func (nn *NameNode) Blocks(path string) ([]BlockInfo, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]BlockInfo, len(f.blocks))
	copy(out, f.blocks)
	return out, nil
}

// Open returns a reader over the whole file.
func (nn *NameNode) Open(path string) (*FileReader, error) {
	blocks, err := nn.Blocks(path)
	if err != nil {
		return nil, err
	}
	return &FileReader{nn: nn, blocks: blocks}, nil
}

// ReadBlock fetches one block's content, preferring the hinted datanode
// (pass -1 for no preference) and failing over across replicas.
func (nn *NameNode) ReadBlock(id BlockID, preferNode int) ([]byte, error) {
	nn.mu.Lock()
	f, ok := nn.files[id.Path]
	if !ok {
		nn.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id.Path)
	}
	if id.Index < 0 || id.Index >= len(f.blocks) {
		nn.mu.Unlock()
		return nil, fmt.Errorf("dfs: block index %d out of range for %s", id.Index, id.Path)
	}
	locs := append([]int(nil), f.blocks[id.Index].Locations...)
	nn.mu.Unlock()

	// Try the preferred node first.
	if preferNode >= 0 {
		for i, l := range locs {
			if l == preferNode {
				locs[0], locs[i] = locs[i], locs[0]
				break
			}
		}
	}
	var lastErr error = ErrBlockLost
	for i, l := range locs {
		data, err := nn.datanodes[l].Read(id)
		if err == nil {
			if i > 0 {
				nn.met.Counter("dfs.read_failovers").Inc()
			}
			return data, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %s (last: %v)", ErrBlockLost, id, lastErr)
}

// UnderReplicated reports blocks whose live replica count is below the
// configured replication, the NameNode's re-replication work list.
func (nn *NameNode) UnderReplicated() []BlockInfo {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []BlockInfo
	for _, f := range nn.files {
		for _, b := range f.blocks {
			live := 0
			for _, l := range b.Locations {
				if !nn.datanodes[l].Down() {
					live++
				}
			}
			if live < nn.cfg.Replication {
				out = append(out, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Path != out[j].ID.Path {
			return out[i].ID.Path < out[j].ID.Path
		}
		return out[i].ID.Index < out[j].ID.Index
	})
	return out
}

// Rereplicate restores missing replicas of under-replicated blocks from a
// surviving copy onto live nodes not already holding one. It returns the
// number of replicas created.
func (nn *NameNode) Rereplicate() (int, error) {
	created := 0
	for _, b := range nn.UnderReplicated() {
		data, err := nn.ReadBlock(b.ID, -1)
		if err != nil {
			return created, err // all replicas lost: data loss, surface it
		}
		nn.mu.Lock()
		f := nn.files[b.ID.Path]
		meta := &f.blocks[b.ID.Index]
		holding := make(map[int]bool)
		liveLocs := meta.Locations[:0]
		for _, l := range meta.Locations {
			if !nn.datanodes[l].Down() {
				holding[l] = true
				liveLocs = append(liveLocs, l)
			}
		}
		meta.Locations = liveLocs
		for _, l := range nn.liveNodes() {
			if len(meta.Locations) >= nn.cfg.Replication {
				break
			}
			if holding[l] {
				continue
			}
			if err := nn.datanodes[l].store(b.ID, data); err != nil {
				continue
			}
			meta.Locations = append(meta.Locations, l)
			created++
			nn.met.Counter("dfs.rereplications").Inc()
		}
		nn.mu.Unlock()
	}
	return created, nil
}

// --------------------------------------------------------------------------
// FileWriter

// FileWriter streams data into a file, cutting blocks at BlockSize and
// committing replicas as each block completes. It implements io.WriteCloser.
type FileWriter struct {
	nn     *NameNode
	path   string
	buf    []byte
	index  int
	closed bool
}

// Write implements io.Writer.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriterClosed
	}
	total := len(p)
	for len(p) > 0 {
		room := int(w.nn.cfg.BlockSize) - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if int64(len(w.buf)) == w.nn.cfg.BlockSize {
			if err := w.commitBlock(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// commitBlock places the buffered block's replicas and registers it.
func (w *FileWriter) commitBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	data := w.buf
	w.buf = nil
	id := BlockID{Path: w.path, Index: w.index}
	w.index++

	w.nn.mu.Lock()
	locs, err := w.nn.placeReplicas()
	if err != nil {
		w.nn.mu.Unlock()
		return err
	}
	f := w.nn.files[w.path]
	f.blocks = append(f.blocks, BlockInfo{ID: id, Size: int64(len(data)), Locations: locs})
	f.size += int64(len(data))
	w.nn.mu.Unlock()

	// Replication pipeline: primary first, then downstream replicas.
	for _, l := range locs {
		if err := w.nn.datanodes[l].store(id, data); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the final partial block. It implements io.Closer and is
// idempotent.
func (w *FileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.commitBlock()
}

// --------------------------------------------------------------------------
// FileReader

// FileReader reads a file sequentially, block by block, failing over
// between replicas. It implements io.Reader.
type FileReader struct {
	nn     *NameNode
	blocks []BlockInfo
	bi     int
	cur    []byte
	pos    int
}

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	for r.pos == len(r.cur) {
		if r.bi == len(r.blocks) {
			return 0, io.EOF
		}
		data, err := r.nn.ReadBlock(r.blocks[r.bi].ID, -1)
		if err != nil {
			return 0, err
		}
		r.cur, r.pos = data, 0
		r.bi++
	}
	n := copy(p, r.cur[r.pos:])
	r.pos += n
	return n, nil
}
