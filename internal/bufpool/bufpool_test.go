package bufpool

import (
	"sync"
	"testing"
)

func TestNilPoolAllocates(t *testing.T) {
	var p *Pool
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("nil pool Get(100) = len %d", len(b))
	}
	p.Put(b) // must not panic
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", s)
	}
}

func TestGetLengthAndReuse(t *testing.T) {
	p := New()
	b := p.Get(1000)
	if len(b) != 1000 {
		t.Fatalf("Get(1000) = len %d", len(b))
	}
	if cap(b) != 4<<10 {
		t.Fatalf("Get(1000) cap = %d, want smallest class %d", cap(b), 4<<10)
	}
	// Under the race detector sync.Pool intentionally drops a fraction of
	// Puts, so a single Put→Get round is not guaranteed to hit. Cycle
	// until one sticks; one round is all it takes in a normal build.
	hit := false
	for i := 0; i < 64 && !hit; i++ {
		p.Put(b)
		b2 := p.Get(2000)
		if len(b2) != 2000 {
			t.Fatalf("Get(2000) = len %d", len(b2))
		}
		before := p.Stats().Hits
		b = b2
		hit = before > 0
	}
	s := p.Stats()
	if !hit || s.Puts == 0 || s.Gets < 2 {
		t.Fatalf("stats = %+v, want at least one hit and one put", s)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {4 << 10, 0}, {4<<10 + 1, 1}, {8 << 10, 1},
		{64 << 10, 4}, {1 << 20, 8}, {16 << 20, 12}, {16<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	p := New()
	b := p.Get(32 << 20)
	if len(b) != 32<<20 {
		t.Fatalf("oversize Get = len %d", len(b))
	}
	p.Put(b) // dropped, not filed
	if s := p.Stats(); s.Puts != 0 {
		t.Fatalf("oversize Put was filed: %+v", s)
	}
}

func TestPutSubClassCapacityNeverServedShort(t *testing.T) {
	// A buffer whose capacity is inside a class but below the class size
	// must be filed one class down, so a Get of the larger class cannot
	// receive an undersized buffer.
	p := New()
	b := make([]byte, 0, 6<<10) // between the 4K and 8K classes
	p.Put(b)
	got := p.Get(8 << 10)
	if len(got) != 8<<10 {
		t.Fatalf("Get(8K) = len %d", len(got))
	}
	if cap(got) < 8<<10 {
		t.Fatalf("Get(8K) got undersized cap %d from pool", cap(got))
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(1 << uint(10+i%8))
				for j := range b {
					b[j] = byte(j)
				}
				p.Put(b)
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.Gets != 4000 || s.Puts != 4000 {
		t.Fatalf("stats = %+v, want 4000 gets/puts", s)
	}
}

// TestGetPutCycleAllocFree pins the property the transport fast paths
// depend on: once warm, recycling a buffer through the pool allocates
// nothing — neither for the buffer nor for the *[]byte box the class
// pools store (headers are recycled through an internal pool).
func TestGetPutCycleAllocFree(t *testing.T) {
	p := New()
	for i := 0; i < 100; i++ {
		p.Put(p.Get(1024))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get(1024))
	})
	if allocs > 0 {
		t.Fatalf("warm Get/Put cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestLookup covers the allocation-free half of Get: what it reports for a
// nil pool, an empty class, a recycled class-sized buffer and a recycled
// buffer too small for the request.
func TestLookup(t *testing.T) {
	if b := (*Pool)(nil).Lookup(100); b != nil {
		t.Fatalf("nil pool Lookup = %d-byte buffer, want a miss", len(b))
	}
	p := New()
	if b := p.Lookup(100); b != nil {
		t.Fatalf("empty pool Lookup = %d-byte buffer, want a miss", len(b))
	}
	if b := p.Lookup(32 << 20); b != nil {
		t.Fatalf("oversize Lookup = %d-byte buffer, want a miss", len(b))
	}
	if s := p.Stats(); s.Gets != 2 || s.Hits != 0 {
		t.Fatalf("stats after two misses = %+v, want 2 gets, 0 hits", s)
	}

	// Native hit: a class-sized buffer comes back at the requested length.
	// sync.Pool drops a share of puts under the race detector; cycle until
	// one sticks, as TestGetLengthAndReuse does.
	var got []byte
	for i := 0; i < 64 && got == nil; i++ {
		p.Put(make([]byte, 8<<10))
		got = p.Lookup(5000)
	}
	if len(got) != 5000 || cap(got) != 8<<10 {
		t.Fatalf("Lookup(5000) after Put(8K) = len %d cap %d, want 5000 in the 8K buffer", len(got), cap(got))
	}
	if p.Stats().Hits != 1 {
		t.Fatalf("stats = %+v, want exactly one hit", p.Stats())
	}

	// Foreign and too small: only the smallest class files buffers below its
	// size, and one of those must never be served to a larger request.
	for i := 0; i < 64; i++ {
		p.Put(make([]byte, 100))
		if b := p.Lookup(200); b != nil {
			t.Fatalf("Lookup(200) served a buffer of cap %d", cap(b))
		}
	}
	// ... while a request it does cover is a hit on it.
	got = nil
	for i := 0; i < 64 && got == nil; i++ {
		p.Put(make([]byte, 100))
		got = p.Lookup(60)
	}
	if len(got) != 60 || cap(got) != 100 {
		t.Fatalf("Lookup(60) after Put(100) = len %d cap %d, want 60 in the 100-byte buffer", len(got), cap(got))
	}
}
