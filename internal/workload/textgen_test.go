package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refTextGenerator is TextGenerator as it was before its words came from
// zipfSampler: one rand.Zipf.Uint64 per word and a strings.Join per line.
// It is the reference the table-driven generator must match byte for byte.
type refTextGenerator struct {
	vocab *Vocabulary
	zipf  *rand.Zipf
	rng   *rand.Rand
	// WordsPerLine controls line length (default 10).
	WordsPerLine int
}

func newRefTextGenerator(vocab *Vocabulary, s float64, seed int64) *refTextGenerator {
	if s <= 1 {
		s = 1.0001 // rand.Zipf requires s > 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &refTextGenerator{
		vocab:        vocab,
		zipf:         rand.NewZipf(rng, s, 1, uint64(vocab.Size()-1)),
		rng:          rng,
		WordsPerLine: 10,
	}
}

// Line generates one line of text.
func (g *refTextGenerator) Line() string {
	n := g.WordsPerLine
	words := make([]string, n)
	for i := range words {
		words[i] = g.vocab.Word(int(g.zipf.Uint64()))
	}
	return strings.Join(words, " ")
}

// Lines generates n lines.
func (g *refTextGenerator) Lines(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Line()
	}
	return out
}

// BytesOfText generates approximately total bytes of newline-terminated
// text and returns it as one buffer.
func (g *refTextGenerator) BytesOfText(total int) []byte {
	var b strings.Builder
	b.Grow(total + 128)
	for b.Len() < total {
		b.WriteString(g.Line())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// textCase is one generator configuration a caller in this module uses.
type textCase struct {
	site         string
	vocabN       int
	vocabSeed    int64
	s            float64
	seed         int64
	size         int
	wordsPerLine int  // 0: the default
	longWords    bool // stretch every fifth word: see longWordVocabulary
}

// longWordVocabulary is NewVocabulary(n, seed) with every fifth word, the
// hottest among them, stretched to 15, 16, 17, 31, 32, 33 or 40 bytes, so
// its slots are 48 bytes wide and a word may end on either side of a
// 16-byte block.
func longWordVocabulary(n int, seed int64) *Vocabulary {
	words := syllableWords(n, seed)
	lengths := []int{15, 16, 17, 31, 32, 33, 40}
	for i := 0; i < n; i += 5 {
		w := words[i]
		words[i] = strings.Repeat(w, 40/len(w)+1)[:lengths[i/5%len(lengths)]]
	}
	return vocabularyOf(words)
}

// textCases lists the (vocabulary, s, seed, size) of every generator call
// site in the module, the benchmark's two sizes included, plus clamped s,
// non-default line lengths, two vocabulary sizes no call site uses
// (800 and 3 000 words) and words too long for a 16-byte slot.
var textCases = []textCase{
	{site: "bench serve-open", vocabN: 500, vocabSeed: 1, s: 1.15, seed: 7, size: 512 << 10},
	{site: "bench serve-open seed 3", vocabN: 500, vocabSeed: 1, s: 1.15, seed: 3, size: 512 << 10},
	{site: "bench wc-mpid-chan", vocabN: 500, vocabSeed: 1, s: 1.15, seed: 7, size: 8 << 20},
	{site: "suite wordcount", vocabN: 500, vocabSeed: 1, s: 1.15, seed: 1, size: 32 << 10},
	{site: "suite grep", vocabN: 500, vocabSeed: 2, s: 1.15, seed: 2, size: 64 << 10},
	{site: "suite invindex", vocabN: 300, vocabSeed: 1, s: 1.2, seed: 4, size: 6 << 10, wordsPerLine: 8},
	{site: "vocab 3000, s=1.2", vocabN: 3_000, vocabSeed: 21, s: 1.2, seed: 22, size: 1 << 20},
	{site: "examples/quickstart", vocabN: 5_000, vocabSeed: 42, s: 1.15, seed: 7, size: 2 << 20},
	{site: "examples/invertedindex", vocabN: 400, vocabSeed: 11, s: 1.3, seed: 117, size: 4 << 10},
	{site: "experiments figure 6", vocabN: 2_000, vocabSeed: 33, s: 1.15, seed: 1 << 20, size: 1 << 20},
	{site: "experiments transport", vocabN: 500, vocabSeed: 33, s: 1.15, seed: 1, size: 64 << 10},
	{site: "hadoop tests", vocabN: 300, vocabSeed: 11, s: 1.1, seed: 12, size: 120_000},
	{site: "hadoop bench events", vocabN: 300, vocabSeed: 1, s: 1.1, seed: 2, size: 256 << 10},
	{site: "root bench", vocabN: 2_000, vocabSeed: 3, s: 1.15, seed: 4, size: 1 << 20},
	{site: "vocab 800, s=1.2", vocabN: 800, vocabSeed: 77, s: 1.2, seed: 78, size: 120 << 10},
	{site: "root determinism", vocabN: 100, vocabSeed: 42, s: 1.1, seed: 1, size: 10_000},
	{site: "clamped s=0.5", vocabN: 100, vocabSeed: 2, s: 0.5, seed: 3, size: 64 << 10},
	{site: "clamped s=1", vocabN: 500, vocabSeed: 1, s: 1, seed: 9, size: 64 << 10},
	{site: "3 words a line", vocabN: 100, vocabSeed: 2, s: 1.1, seed: 3, size: 32 << 10, wordsPerLine: 3},
	{site: "1 word a line", vocabN: 1_000, vocabSeed: 1, s: 1.2, seed: 5, size: 16 << 10, wordsPerLine: 1},
	{site: "words of 15 to 40 bytes", vocabN: 500, vocabSeed: 1, s: 1.15, seed: 7, size: 256 << 10, longWords: true},
}

func (c textCase) generators() (*TextGenerator, *refTextGenerator) {
	vocab := NewVocabulary(c.vocabN, c.vocabSeed)
	if c.longWords {
		vocab = longWordVocabulary(c.vocabN, c.vocabSeed)
	}
	g, ref := NewTextGenerator(vocab, c.s, c.seed), newRefTextGenerator(vocab, c.s, c.seed)
	if c.wordsPerLine != 0 {
		g.WordsPerLine, ref.WordsPerLine = c.wordsPerLine, c.wordsPerLine
	}
	return g, ref
}

// TestTextGeneratorByteIdentical: the table-driven generator produces the
// reference generator's bytes for every in-module configuration, through
// BytesOfText, Line, Lines and the three interleaved on one generator.
func TestTextGeneratorByteIdentical(t *testing.T) {
	for _, c := range textCases {
		t.Run(c.site, func(t *testing.T) {
			g, ref := c.generators()
			if c.longWords && g.vocab.width != 48 {
				t.Fatalf("slots are %d bytes wide, want 48", g.vocab.width)
			}
			got, want := g.BytesOfText(c.size), ref.BytesOfText(c.size)
			if !bytes.Equal(got, want) {
				t.Fatalf("BytesOfText(%d): %d bytes, first difference at %d; want %d bytes",
					c.size, len(got), firstDiff(got, want), len(want))
			}

			g, ref = c.generators()
			for i := 0; i < 200; i++ {
				if a, b := g.Line(), ref.Line(); a != b {
					t.Fatalf("Line %d = %q, want %q", i, a, b)
				}
			}

			g, ref = c.generators()
			if a, b := g.Lines(300), ref.Lines(300); strings.Join(a, "\n") != strings.Join(b, "\n") || len(a) != len(b) {
				t.Fatal("Lines(300) differs")
			}

			g, ref = c.generators()
			for i := 0; i < 20; i++ {
				var a, b string
				switch i % 3 {
				case 0:
					a, b = g.Line(), ref.Line()
				case 1:
					a, b = strings.Join(g.Lines(i), "|"), strings.Join(ref.Lines(i), "|")
				case 2:
					a, b = string(g.BytesOfText(100*i)), string(ref.BytesOfText(100*i))
				}
				if a != b {
					t.Fatalf("interleaved call %d = %q, want %q", i, a, b)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// fallbackShare is the share of all draws t sends to rand.Zipf.
func fallbackShare(t *zipfTable) float64 {
	if !t.exact {
		return 1
	}
	var inside uint64
	for i, lo := range t.bounds {
		if hi := t.end(i); hi-lo > 2*zipfGuard {
			inside += hi - lo - 2*zipfGuard
		}
	}
	return float64(1<<63-inside) / (1 << 63)
}

// TestZipfTableFallbackShare: for every (s, vocabulary) pair the module
// generates text with, the table is exact and sends fewer than 1 draw in
// 10^5 to rand.Zipf, so a table that silently degrades to rand.Zipf fails
// here rather than only running slower.
func TestZipfTableFallbackShare(t *testing.T) {
	seen := make(map[zipfKey]bool)
	for _, c := range textCases {
		s := max(c.s, 1.0001)
		k := zipfKey{s, uint64(c.vocabN - 1)}
		if seen[k] {
			continue
		}
		seen[k] = true
		tab := cachedZipfTable(k.s, k.imax)
		if !tab.exact {
			t.Errorf("s=%g imax=%d: table failed its check", k.s, k.imax)
			continue
		}
		if share := fallbackShare(tab); share >= 1e-5 {
			t.Errorf("s=%g imax=%d: %.3g of draws fall back to rand.Zipf, want < 1e-5", k.s, k.imax, share)
		}
	}
}

// TestZipfTableCheckCatchesWrongStep: a table whose steps disagree with
// rand.Zipf fails its check, and a generator over a failed table still
// draws exactly rand.Zipf's stream.
func TestZipfTableCheckCatchesWrongStep(t *testing.T) {
	const s, imax = 1.15, 499
	tab := &zipfTable{s: s, imax: imax}
	if !tab.steps() || !tab.check() {
		t.Fatal("the true steps fail their check")
	}
	// Only segments wider than their two guard bands are probed.
	var wide []int
	for i, lo := range tab.bounds {
		if tab.end(i)-lo > 1<<50 {
			wide = append(wide, i)
		}
	}
	for _, i := range []int{wide[0], wide[1], wide[len(wide)/2], wide[len(wide)-1]} {
		wrong := &zipfTable{s: s, imax: imax}
		wrong.steps()
		wrong.outcome[i]++
		if wrong.check() {
			t.Errorf("segment %d's outcome off by one passes the check", i)
		}
		wrong.outcome[i]--
		wrong.bounds[i] += 1 << 50
		if i > 0 && wrong.check() {
			t.Errorf("segment %d's start moved by 2^50 passes the check", i)
		}
	}

	z := newZipfSampler(rand.NewSource(5), &zipfTable{s: s, imax: imax})
	ref := rand.NewZipf(rand.New(rand.NewSource(5)), s, 1, imax)
	for i := 0; i < 10_000; i++ {
		if a, b := z.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d over an inexact table = %d, want %d", i, a, b)
		}
	}
}

// edgeSource yields draws within two guard bands of a table's steps, where
// the table hands over to rand.Zipf, and the ends of the draw range.
type edgeSource struct {
	rng    *rand.Rand
	bounds []uint64
}

func (e *edgeSource) Int63() int64 {
	j := e.rng.Intn(len(e.bounds) + 1)
	if j == len(e.bounds) {
		return math.MaxInt64 - e.rng.Int63n(2*zipfGuard)
	}
	b, off := int64(e.bounds[j]), e.rng.Int63n(4*zipfGuard)-2*zipfGuard
	if off > math.MaxInt64-b {
		return math.MaxInt64
	}
	return max(b+off, 0)
}

func (e *edgeSource) Seed(int64) {}

// FuzzZipfTable: the sampler returns rand.Zipf's variates draw for draw
// over s ∈ (1, 3] and imax ∈ [0, 70 000), on a seeded source and on draws
// clustered at the table's steps.
func FuzzZipfTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, su uint32, imax uint32, seed int64) {
		s := 1 + 2*(float64(su)+1)/(1<<32)
		im := uint64(imax % 70_000)
		tab := newZipfTable(s, im)
		if s >= zipfMinS && !tab.exact {
			t.Fatalf("s=%g imax=%d: table failed its check", s, im)
		}
		z := newZipfSampler(rand.NewSource(seed), tab)
		ref := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, im)
		for i := 0; i < 20_000; i++ {
			if a, b := z.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("s=%g imax=%d seed=%d: draw %d = %d, want %d", s, im, seed, i, a, b)
			}
		}
		if !tab.exact {
			return
		}
		edge := func() *edgeSource {
			return &edgeSource{rng: rand.New(rand.NewSource(seed)), bounds: tab.bounds}
		}
		z = newZipfSampler(edge(), tab)
		ref = rand.NewZipf(rand.New(edge()), s, 1, im)
		for i := 0; i < 2_000; i++ {
			if a, b := z.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("s=%g imax=%d seed=%d: edge draw %d = %d, want %d", s, im, seed, i, a, b)
			}
		}
	})
}

// BenchmarkTextGenerator: one generator's text at the served job's and
// the wc-mpid-chan job's input sizes.
func BenchmarkTextGenerator(b *testing.B) {
	vocab := NewVocabulary(500, 1)
	for _, size := range []int{512 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewTextGenerator(vocab, 1.15, int64(i)).BytesOfText(size)
			}
		})
	}
}
