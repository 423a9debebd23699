// Package bufpool is the shared size-classed byte-buffer pool behind the
// data paths that recycle buffers between owners: the TCP MPI transport's
// frame reader (internal/mpi), which reads frames into the buffers its
// receivers put back, and the hadoop engine's jetty shuffle fetches
// (internal/jetty) and merge passes (internal/shuffle), one pool per
// tasktracker.
//
// It grew out of internal/shuffle's BufferPool (PR 4). MPI-D's spill no
// longer uses it: each rank owns its partition buffers, kept with its send
// arena. MPI-D's grouped receiver puts nothing back — its merge hands the
// reduce function slices of the received runs — which is why the TCP frame
// reader asks with Lookup and sizes its misses exactly instead of rounding
// them up to a class it will never see again.
//
// Buffers are grouped into power-of-two size classes so a Get never reuses
// a buffer more than 2x larger than requested (which would strand memory),
// and a slightly larger request later still hits the pool. Each class is a
// sync.Pool, so idle buffers are released under GC pressure rather than
// pinned forever. Hit/miss counts are kept with atomics and exported via
// Stats.
//
// A nil *Pool is valid everywhere and simply allocates, matching the
// nil-registry contract of internal/metrics and internal/faults.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size-class bounds. Requests below minClassBytes share the smallest class
// (a 4 KiB buffer is cheap enough that finer classes just fragment the
// pool); requests above maxClassBytes are allocated exactly and recycled
// into the largest class only if they fit it.
const (
	minClassShift = 12 // 4 KiB
	maxClassShift = 24 // 16 MiB
	numClasses    = maxClassShift - minClassShift + 1
)

// Pool recycles byte buffers across spills, fetches, frame reads and merge
// passes. Methods are safe for concurrent use. The zero value is ready.
type Pool struct {
	classes [numClasses]sync.Pool
	// hdrs recycles the *[]byte boxes the class pools store. Without it
	// every Put heap-allocates a fresh slice header to take the address of,
	// which was the last per-message allocation on the transport fast
	// paths (one Put per consumed frame). A header checked out of hdrs is
	// owned exclusively until it is filed back, so the box cycle is
	// race-free and steady-state Get/Put allocates nothing.
	hdrs sync.Pool
	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
}

// Stats is a snapshot of a pool's traffic: Gets counts Get and Lookup calls,
// Hits the ones served from a recycled buffer, Puts the buffers returned.
type Stats struct {
	Gets int64
	Hits int64
	Puts int64
}

// New creates an empty pool.
func New() *Pool { return &Pool{} }

// classFor returns the smallest size class holding n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a length-n buffer, reusing a pooled one when its size class
// has a free buffer. Use b[:0] to append. A miss allocates the whole class,
// so the buffer files back under the class it was asked from.
func (p *Pool) Get(n int) []byte {
	if b := p.Lookup(n); b != nil {
		return b
	}
	if c := classFor(n); p != nil && c >= 0 {
		return make([]byte, n, 1<<(minClassShift+c))
	}
	return make([]byte, n)
}

// Lookup is Get without the allocation: it returns a recycled length-n
// buffer, or nil when the pool has none (a nil pool never has). It is for
// a caller that keeps most of what it takes — a class-sized buffer that is
// never Put back only wastes the rounding — and so sizes its own misses.
func (p *Pool) Lookup(n int) []byte {
	if p == nil {
		return nil
	}
	p.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		return nil
	}
	v := p.classes[c].Get()
	if v == nil {
		return nil
	}
	// Native buffers (capacity exactly the class size) are stored as a
	// raw array pointer — pointer-shaped, so the interface carries it
	// without boxing — and the slice is rebuilt here from the known
	// class capacity. Foreign capacities ride in recycled *[]byte boxes.
	if ptr, ok := v.(unsafe.Pointer); ok {
		p.hits.Add(1)
		return unsafe.Slice((*byte)(ptr), 1<<(minClassShift+c))[:n]
	}
	h := v.(*[]byte)
	b := *h
	*h = nil
	p.hdrs.Put(h)
	if cap(b) < n {
		return nil // only the smallest class files buffers below its size; dropped
	}
	p.hits.Add(1)
	return b[:n]
}

// Put returns a buffer to its size class. The caller must not use b
// afterwards. Buffers larger than the largest class are dropped.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c < 0 {
		return
	}
	// A buffer is filed under the largest class it fully covers, so a Get
	// of that class never receives a too-small buffer.
	if cap(b) < 1<<(minClassShift+c) && c > 0 {
		c--
	}
	p.puts.Add(1)
	if cap(b) == 1<<(minClassShift+c) {
		// Native buffer: file the bare array pointer (see Get).
		p.classes[c].Put(unsafe.Pointer(unsafe.SliceData(b[:1])))
		return
	}
	h, _ := p.hdrs.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	p.classes[c].Put(h)
}

// Stats returns the pool's traffic counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{Gets: p.gets.Load(), Hits: p.hits.Load(), Puts: p.puts.Load()}
}
