package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// zipfSampler returns exactly what rand.Zipf(s, v=1, imax) returns over the
// same source, draw for draw, at the cost of one table lookup per draw
// instead of rand.Zipf's math.Exp and math.Log.
//
// Why a table can be exact: rand.Zipf turns each Int63 draw d into
// r = d/2^63, then into ur = hxm + r·(hx0−hxm), x = hinv(ur) and
// k = ⌊x+½⌋, and either returns k or draws again. ur falls as d grows and
// hinv rises with ur, so in exact arithmetic what one draw yields — a rank
// or "draw again" — is a step function of d with at most two steps per
// rank: where x crosses k−½ (the rank changes) and where the draw starts
// to be accepted, x ≥ min(k−s', t_k) in rand.Zipf's acceptance test. The
// steps are computed once from h and hinv; floating-point rounding moves
// rand.Zipf's own steps by far less than 2^32 of the 2^63 draw values, so
// every draw at least zipfGuard from a step answers from the table, and
// each step is checked against rand.Zipf itself on both sides of its
// guard band. A draw inside a guard band goes to a real rand.Zipf that is
// handed the same draw through replaySource and continues on the same
// source. A table that fails its check sends every draw there.
type zipfSampler struct {
	tab    *zipfTable // nil: every draw goes to slow
	replay replaySource
	slow   *rand.Zipf // over replay; the fallback
}

// newZipfSampler draws t's variates from src.
func newZipfSampler(src rand.Source, t *zipfTable) *zipfSampler {
	z := &zipfSampler{replay: replaySource{src: src}}
	z.slow = rand.NewZipf(rand.New(&z.replay), t.s, 1, t.imax)
	if t.exact {
		z.tab = t
	}
	return z
}

// Uint64 returns the next Zipf variate, as rand.Zipf.Uint64 would.
func (z *zipfSampler) Uint64() uint64 {
	if z.tab == nil {
		return z.slow.Uint64()
	}
	for {
		d := uint64(z.replay.src.Int63())
		e := z.tab.bucket[d>>zipfBucketShift&(zipfBuckets-1)]
		if e < 0 {
			e = z.tab.lookup(d, e)
			if e == zipfRedraw {
				continue
			}
			if e == zipfFallback {
				z.replay.next, z.replay.held = int64(d), true
				return z.slow.Uint64()
			}
		}
		return uint64(e)
	}
}

// replaySource hands a held draw back once, then continues on src.
type replaySource struct {
	src  rand.Source
	next int64
	held bool
}

func (r *replaySource) Int63() int64 {
	if r.held {
		r.held = false
		return r.next
	}
	return r.src.Int63()
}

func (r *replaySource) Seed(seed int64) {
	r.held = false
	r.src.Seed(seed)
}

const (
	zipfBucketBits  = 16
	zipfBuckets     = 1 << zipfBucketBits
	zipfBucketShift = 63 - zipfBucketBits
	// zipfGuard is how close to a step a draw may come and still answer
	// from the table.
	zipfGuard = 1 << 32
	// zipfMaxRanks bounds the tables built: a larger vocabulary samples
	// through rand.Zipf alone.
	zipfMaxRanks = 1 << 17
	// zipfMinS is the smallest s a table is built for (the clamp
	// NewTextGenerator applies). Nearer 1, h's values grow as 1/(s−1) and
	// the steps' rounding error approaches the guard band.
	zipfMinS = 1.0001
)

// Table entries: a rank ≥ 0, or one of these; an entry below zipfFallback
// names the segment its bucket starts in, as zipfMixed − segment.
const (
	zipfRedraw   = -1 // the draw is rejected: draw again
	zipfFallback = -2 // the draw goes to rand.Zipf
	zipfMixed    = -3
)

// zipfTable maps a draw to what rand.Zipf yields for it. Segment i covers
// draws [bounds[i], bounds[i+1]) (the last ends at 2^63) and yields
// outcome[i]; bucket b covers draws [b, b+1)·2^zipfBucketShift and holds
// the outcome itself when the bucket lies inside one segment's guarded
// interior.
type zipfTable struct {
	s       float64
	imax    uint64
	exact   bool
	bounds  []uint64
	outcome []int32
	bucket  *[zipfBuckets]int32
}

// lookup answers a draw whose bucket entry e is not a plain outcome.
func (t *zipfTable) lookup(d uint64, e int32) int32 {
	if e >= zipfFallback {
		return e
	}
	i := int(zipfMixed - e)
	i += sort.Search(len(t.bounds)-i-1, func(j int) bool { return t.bounds[i+j+1] > d })
	if d-t.bounds[i] < zipfGuard || t.end(i)-d <= zipfGuard {
		return zipfFallback
	}
	return t.outcome[i]
}

// end returns where segment i stops.
func (t *zipfTable) end(i int) uint64 {
	if i+1 < len(t.bounds) {
		return t.bounds[i+1]
	}
	return 1 << 63
}

type zipfKey struct {
	s    float64
	imax uint64
}

// zipfTables caches tables by (s, imax); a few in-tree parameter pairs
// exist, and past zipfCacheMax a new pair's table is built and not kept.
var zipfTables struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}

const zipfCacheMax = 16

func cachedZipfTable(s float64, imax uint64) *zipfTable {
	k := zipfKey{s, imax}
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if t, ok := zipfTables.m[k]; ok {
		return t
	}
	t := newZipfTable(s, imax)
	if zipfTables.m == nil {
		zipfTables.m = make(map[zipfKey]*zipfTable)
	}
	if len(zipfTables.m) < zipfCacheMax {
		zipfTables.m[k] = t
	}
	return t
}

// newZipfTable computes the steps for rand.NewZipf(·, s, 1, imax), checks
// them against rand.Zipf and fills the buckets. The returned table is
// inexact if s or imax is out of range or the check fails.
func newZipfTable(s float64, imax uint64) *zipfTable {
	t := &zipfTable{s: s, imax: imax}
	if !(s >= zipfMinS) || imax >= zipfMaxRanks {
		return t
	}
	if !t.steps() || !t.check() {
		return &zipfTable{s: s, imax: imax}
	}
	t.fill()
	t.exact = true
	return t
}

// steps fills bounds and outcome from rand.Zipf's h and hinv, walking the
// ranks from imax (draw 0) down to 0 (draws near 2^63). It reports false
// if the steps come out of order by more than rounding.
func (t *zipfTable) steps() bool {
	s, imax := t.s, t.imax
	oneminusQ := 1 - s
	oneminusQinv := 1 / oneminusQ
	h := func(x float64) float64 { return math.Exp(oneminusQ*math.Log(1+x)) * oneminusQinv }
	hinv := func(x float64) float64 { return math.Exp(oneminusQinv*math.Log(oneminusQ*x)) - 1 }
	hxm := h(float64(imax) + 0.5)
	hx0minusHxm := h(0.5) - 1 - hxm
	sq := 1 - hinv(h(1.5)-math.Exp(-s*math.Log(2)))
	// draw maps ur back to the draw that yields it; draws past 2^63 clamp.
	draw := func(ur float64) uint64 {
		d := (ur - hxm) / hx0minusHxm * (1 << 63)
		switch {
		case !(d > 0):
			return 0
		case d >= 1<<63:
			return 1 << 63
		}
		return uint64(d)
	}
	t.bounds = append(t.bounds[:0], 0)
	t.outcome = append(t.outcome[:0], int32(imax))
	ordered := true
	step := func(d uint64, o int32) {
		last := len(t.bounds) - 1
		switch {
		case d >= 1<<63:
		case d+zipfGuard < t.bounds[last]:
			ordered = false
		case d <= t.bounds[last]:
			t.outcome[last] = o // an empty segment
		default:
			t.bounds = append(t.bounds, d)
			t.outcome = append(t.outcome, o)
		}
	}
	for k := float64(imax); k >= 0; k-- {
		// Rank k is drawn for ur in [h(k−½), h(k+½)) and accepted from
		// accept up; below it the draw is rejected.
		accept := math.Min(h(k-sq), h(k+0.5)-math.Exp(-math.Log(k+1)*s))
		start := h(k - 0.5)
		if accept > start {
			step(draw(accept), zipfRedraw)
		}
		if k >= 1 {
			step(draw(start), int32(k-1))
		}
	}
	return ordered
}

// check probes rand.Zipf on both sides of every segment's guarded
// interior and reports whether each yields the segment's outcome.
func (t *zipfTable) check() bool {
	var p probeSource
	z := rand.NewZipf(rand.New(&p), t.s, 1, t.imax)
	for i, lo := range t.bounds {
		hi := t.end(i)
		if hi-lo <= 2*zipfGuard {
			continue
		}
		if p.outcome(z, lo+zipfGuard) != t.outcome[i] || p.outcome(z, hi-zipfGuard-1) != t.outcome[i] {
			return false
		}
	}
	return true
}

// fill sets each bucket to its segment's outcome when the bucket lies in
// that segment's guarded interior, and to the segment it starts in
// otherwise.
func (t *zipfTable) fill() {
	t.bucket = new([zipfBuckets]int32)
	i := 0
	for b := range t.bucket {
		lo := uint64(b) << zipfBucketShift
		hi := lo + 1<<zipfBucketShift - 1
		for i+1 < len(t.bounds) && t.bounds[i+1] <= lo {
			i++
		}
		if lo-t.bounds[i] >= zipfGuard && hi+zipfGuard < t.end(i) {
			t.bucket[b] = t.outcome[i]
		} else {
			t.bucket[b] = zipfMixed - int32(i)
		}
	}
}

// probeSource yields one chosen draw; a second request means rand.Zipf
// rejected the first, and unwinds the probe.
type probeSource struct {
	d    int64
	used bool
}

type probeRedraw struct{}

func (p *probeSource) Int63() int64 {
	if p.used {
		panic(probeRedraw{})
	}
	p.used = true
	return p.d
}

func (p *probeSource) Seed(int64) {}

// outcome returns what z yields for the single draw d.
func (p *probeSource) outcome(z *rand.Zipf, d uint64) (o int32) {
	p.d, p.used = int64(d), false
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(probeRedraw); !ok {
				panic(r)
			}
			o = zipfRedraw
		}
	}()
	return int32(z.Uint64())
}
