// Package workload generates the deterministic synthetic inputs the
// experiments process: Zipf-distributed text for WordCount (the paper's §IV
// micro-benchmark) and GridMix-style sortable records for the JavaSort
// shuffle study (§II.A). The paper's actual 1-150 GB inputs are not
// available; these generators are seeded and reproducible, and their
// statistical shape (vocabulary skew, record geometry) is what the measured
// systems are sensitive to.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Vocabulary holds the word list text generation draws from. It is never
// written after it is built, so NewVocabulary shares one among its callers.
type Vocabulary struct {
	words []string
	// slots holds word i at slots[i*width:], then a space, then zero
	// padding up to width, a multiple of 16.
	slots []byte
	width int
}

type vocabKey struct {
	n    int
	seed int64
}

// vocabularies memoizes NewVocabulary by (n, seed). Job builders ask for a
// vocabulary per job, and a long-lived job service meets job seeds without
// end, so the memo keeps at most vocabCacheMax vocabularies of at most
// vocabCacheMaxWords words, and makes room for a new one by dropping
// another.
var vocabularies struct {
	sync.Mutex
	m map[vocabKey]*Vocabulary
}

const (
	vocabCacheMax      = 16
	vocabCacheMaxWords = 1 << 14
)

// NewVocabulary synthesizes n pseudo-English words deterministically from
// the seed. Words are syllable chains, 3-12 letters, guaranteed unique.
// Callers with the same (n, seed) may share one *Vocabulary.
func NewVocabulary(n int, seed int64) *Vocabulary {
	k := vocabKey{n, seed}
	vocabularies.Lock()
	v, ok := vocabularies.m[k]
	vocabularies.Unlock()
	if ok {
		return v
	}
	v = vocabularyOf(syllableWords(n, seed))
	if n > vocabCacheMaxWords {
		return v
	}
	vocabularies.Lock()
	defer vocabularies.Unlock()
	if w, ok := vocabularies.m[k]; ok {
		return w // a concurrent caller built it first
	}
	if vocabularies.m == nil {
		vocabularies.m = make(map[vocabKey]*Vocabulary)
	}
	for old := range vocabularies.m {
		if len(vocabularies.m) < vocabCacheMax {
			break
		}
		delete(vocabularies.m, old)
	}
	vocabularies.m[k] = v
	return v
}

// syllableWords draws NewVocabulary's words.
func syllableWords(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	syllables := []string{
		"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
		"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
		"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
		"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
		"ta", "te", "ti", "to", "tu", "za", "ze", "zi", "zo", "zu",
	}
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	for len(words) < n {
		var b strings.Builder
		k := 2 + rng.Intn(4)
		for i := 0; i < k; i++ {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		w := b.String()
		if seen[w] {
			// Disambiguate deterministically rather than rerolling forever.
			w = fmt.Sprintf("%s%d", w, len(words))
		}
		seen[w] = true
		words = append(words, w)
	}
	return words
}

// vocabularyOf lays words out in slots wide enough for the longest.
func vocabularyOf(words []string) *Vocabulary {
	width := 16
	for _, w := range words {
		width = max(width, (len(w)+1+15)&^15)
	}
	v := &Vocabulary{words: words, slots: make([]byte, len(words)*width), width: width}
	for i, w := range words {
		v.slots[i*width+copy(v.slots[i*width:], w)] = ' '
	}
	return v
}

// Size returns the vocabulary size.
func (v *Vocabulary) Size() int { return len(v.words) }

// Word returns the i-th word.
func (v *Vocabulary) Word(i int) string { return v.words[i] }

// TextGenerator produces lines of Zipf-distributed words, modelling natural
// text for WordCount. It is deterministic for a given (vocab, seed): its
// words are exactly those rand.Zipf would draw from rand.NewSource(seed),
// drawn by table lookup (see zipfSampler) and written straight into the
// output buffer.
type TextGenerator struct {
	vocab *Vocabulary
	zipf  *zipfSampler
	line  []byte // Line's scratch
	// WordsPerLine controls line length (default 10).
	WordsPerLine int
}

// NewTextGenerator creates a generator with Zipf parameter s (typical
// natural-language skew is s ~ 1.1).
func NewTextGenerator(vocab *Vocabulary, s float64, seed int64) *TextGenerator {
	if s <= 1 {
		s = 1.0001 // rand.Zipf requires s > 1
	}
	return &TextGenerator{
		vocab:        vocab,
		zipf:         newZipfSampler(rand.NewSource(seed), cachedZipfTable(s, uint64(vocab.Size()-1))),
		WordsPerLine: 10,
	}
}

// appendLine appends one line of text and its newline to buf. Each word is
// one copy of its whole slot, in 16-byte blocks, after which the line
// advances past the word and its space only, so the next word overwrites
// the padding; the line's last space becomes its newline. Past the line,
// buf's spare capacity holds padding.
func (g *TextGenerator) appendLine(buf []byte) []byte {
	if g.WordsPerLine <= 0 {
		return append(buf, '\n')
	}
	v := g.vocab
	n := len(buf)
	buf = slices.Grow(buf, g.WordsPerLine*v.width)
	out := buf[:cap(buf)]
	for range g.WordsPerLine {
		i := int(g.zipf.Uint64())
		slot := v.slots[i*v.width : (i+1)*v.width]
		for k := 0; k < len(slot); k += 16 {
			*(*[16]byte)(out[n+k:]) = *(*[16]byte)(slot[k:])
		}
		n += len(v.words[i]) + 1
	}
	out[n-1] = '\n'
	return out[:n]
}

// Line generates one line of text.
func (g *TextGenerator) Line() string {
	g.line = g.appendLine(g.line[:0])
	return string(g.line[:len(g.line)-1])
}

// Lines generates n lines.
func (g *TextGenerator) Lines(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Line()
	}
	return out
}

// BytesOfText generates approximately total bytes of newline-terminated
// text and returns it as one buffer: whole lines, stopping at the first
// line that reaches total.
func (g *TextGenerator) BytesOfText(total int) []byte {
	buf := make([]byte, 0, total+max(g.WordsPerLine, 0)*g.vocab.width)
	for len(buf) < total {
		buf = g.appendLine(buf)
	}
	return buf
}

// ---------------------------------------------------------------------------
// GridMix JavaSort records

// SortGenerator produces deterministic sortable records in the TeraSort /
// GridMix geometry: a 10-byte uniform-random printable key, so hash and
// range partitioning both spread them evenly, and a fixed-size filler
// value; 100 bytes in all by default.
type SortGenerator struct {
	rng       *rand.Rand
	ValueSize int // default 90
}

// NewSortGenerator creates a generator from seed.
func NewSortGenerator(seed int64) *SortGenerator {
	return &SortGenerator{rng: rand.New(rand.NewSource(seed)), ValueSize: 90}
}

// AppendRecords appends n records to dst, back to back, as TeraGen writes
// them, and returns the extended slice.
func (g *SortGenerator) AppendRecords(dst []byte, n int) []byte {
	return appendRecords(dst, n, g.KeySize(), g.ValueSize, g.rng, func(key []byte) {
		for i := range key {
			key[i] = byte(' ' + g.rng.Intn(95))
		}
	})
}

// KeySize returns the byte size of one generated key.
func (g *SortGenerator) KeySize() int { return 10 }

// RecordSize returns the byte size of one generated record.
func (g *SortGenerator) RecordSize() int { return g.KeySize() + g.ValueSize }

// appendRecords appends n records of keyLen+valueLen bytes to dst: each
// key written by key, then its value's letters drawn from rng.
func appendRecords(dst []byte, n, keyLen, valueLen int, rng *rand.Rand, key func([]byte)) []byte {
	size := keyLen + valueLen
	dst = slices.Grow(dst, n*size)
	for ; n > 0; n-- {
		rec := dst[len(dst) : len(dst)+size]
		key(rec[:keyLen])
		for i := keyLen; i < size; i++ {
			rec[i] = byte('A' + rng.Intn(26))
		}
		dst = dst[:len(dst)+size]
	}
	return dst
}

// SkewedSortGenerator produces sortable records whose keys are drawn from a
// Zipf distribution over a bounded key universe — the skewed-key
// configuration the Spark-vs-MPI word count study measures. Unlike
// SortGenerator's uniform random keys, the same key recurs many times
// (under s >= 1.5 the hottest key accounts for a large share of all draws)
// and hot keys cluster at the low end of the key space, which starves naive
// range partitioners and produces the duplicate-key outputs that stress
// output canonicalization.
type SkewedSortGenerator struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	keyLen int // "key-" and the zero-padded draw: 12 up to a universe of 10^8
	// ValueSize is the filler value length (default 90, as SortGenerator).
	ValueSize int
}

// NewSkewedSortGenerator creates a generator drawing keys Zipf(s) over a
// universe of distinct keys. s must be > 1; smaller universes and larger s
// mean more duplicates.
func NewSkewedSortGenerator(seed int64, s float64, universe int) *SkewedSortGenerator {
	if s <= 1 {
		s = 1.0001
	}
	if universe < 2 {
		universe = 2
	}
	rng := rand.New(rand.NewSource(seed))
	return &SkewedSortGenerator{
		rng:       rng,
		zipf:      rand.NewZipf(rng, s, 1, uint64(universe-1)),
		keyLen:    len("key-") + max(8, len(strconv.Itoa(universe-1))),
		ValueSize: 90,
	}
}

// AppendRecords appends n records to dst, back to back, and returns the
// extended slice. A key renders its Zipf draw zero-padded so lexicographic
// key order matches numeric order.
func (g *SkewedSortGenerator) AppendRecords(dst []byte, n int) []byte {
	return appendRecords(dst, n, g.keyLen, g.ValueSize, g.rng, func(key []byte) {
		copy(key, "key-")
		v := g.zipf.Uint64()
		for i := len(key) - 1; i >= len("key-"); i-- {
			key[i] = byte('0' + v%10)
			v /= 10
		}
	})
}

// KeySize returns the byte size of one generated key.
func (g *SkewedSortGenerator) KeySize() int { return g.keyLen }

// RecordSize returns the byte size of one generated record.
func (g *SkewedSortGenerator) RecordSize() int { return g.keyLen + g.ValueSize }

// ---------------------------------------------------------------------------
// Graph generation (PageRank)

// NewGraph builds a deterministic directed graph: graph[v] lists v's
// outgoing neighbours. Degrees are spread 1..2*avgDegree so hubs exist, no
// self-loops, no duplicate edges, and every vertex has at least one
// outgoing link (no dangling mass).
func NewGraph(vertices, avgDegree int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	g := make([][]int, vertices)
	for v := range g {
		deg := 1 + rng.Intn(2*avgDegree)
		if deg >= vertices {
			deg = vertices - 1
		}
		seen := make(map[int]bool, deg)
		for len(g[v]) < deg {
			u := rng.Intn(vertices)
			if u == v || seen[u] {
				continue
			}
			seen[u] = true
			g[v] = append(g[v], u)
		}
	}
	return g
}
