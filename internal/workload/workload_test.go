package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ict-repro/mpid/internal/mapred"
)

func TestVocabularyUniqueWords(t *testing.T) {
	v := NewVocabulary(5000, 42)
	if v.Size() != 5000 {
		t.Fatalf("Size = %d", v.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < v.Size(); i++ {
		w := v.Word(i)
		if w == "" {
			t.Fatalf("empty word at %d", i)
		}
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
}

func TestVocabularyDeterministic(t *testing.T) {
	a, b := NewVocabulary(100, 7), NewVocabulary(100, 7)
	for i := 0; i < 100; i++ {
		if a.Word(i) != b.Word(i) {
			t.Fatalf("vocabularies diverge at %d: %q vs %q", i, a.Word(i), b.Word(i))
		}
	}
	c := NewVocabulary(100, 8)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Word(i) == c.Word(i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical vocabularies")
	}
}

// TestVocabularyMemo: NewVocabulary hands every caller of one (n, seed)
// the same vocabulary, keeps at most vocabCacheMax of them whatever the
// number of seeds asked for, and builds one too large to keep afresh.
func TestVocabularyMemo(t *testing.T) {
	a := NewVocabulary(123, 4567)
	if b := NewVocabulary(123, 4567); a != b {
		t.Fatal("NewVocabulary(123, 4567) built twice in a row")
	}
	for seed := int64(0); seed < 2*vocabCacheMax; seed++ {
		NewVocabulary(50, 1000+seed)
	}
	vocabularies.Lock()
	kept := len(vocabularies.m)
	vocabularies.Unlock()
	if kept > vocabCacheMax {
		t.Fatalf("memo holds %d vocabularies, bound %d", kept, vocabCacheMax)
	}
	const big = vocabCacheMaxWords + 1
	b1, b2 := NewVocabulary(big, 3), NewVocabulary(big, 3)
	if b1 == b2 {
		t.Fatalf("a %d-word vocabulary was kept", big)
	}
	for i := range big {
		if b1.Word(i) != b2.Word(i) {
			t.Fatalf("two %d-word vocabularies diverge at %d", big, i)
		}
	}
}

// TestVocabularyMemoConcurrent: callers racing on more keys than the memo
// keeps each get the words a fresh build draws. Run under -race.
func TestVocabularyMemoConcurrent(t *testing.T) {
	const keys = vocabCacheMax + 4
	want := make([]*Vocabulary, keys)
	for k := range want {
		want[k] = vocabularyOf(syllableWords(200, int64(7000+k)))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 * keys {
				k := (r + g*5) % keys
				v := NewVocabulary(200, int64(7000+k))
				if !bytes.Equal(v.slots, want[k].slots) || v.Word(199) != want[k].Word(199) {
					t.Errorf("NewVocabulary(200, %d) differs from a fresh build", 7000+k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTextGeneratorDeterministic(t *testing.T) {
	v := NewVocabulary(1000, 1)
	g1 := NewTextGenerator(v, 1.1, 99)
	g2 := NewTextGenerator(v, 1.1, 99)
	for i := 0; i < 50; i++ {
		if l1, l2 := g1.Line(), g2.Line(); l1 != l2 {
			t.Fatalf("line %d diverges: %q vs %q", i, l1, l2)
		}
	}
}

func TestTextGeneratorZipfSkew(t *testing.T) {
	// With Zipf skew, the most frequent word should dominate: its count
	// must be several times the median word's count.
	v := NewVocabulary(1000, 1)
	g := NewTextGenerator(v, 1.2, 5)
	counts := make(map[string]int)
	for _, l := range g.Lines(5000) {
		for _, w := range strings.Fields(l) {
			counts[w]++
		}
	}
	maxCount := 0
	total := 0
	for _, c := range counts {
		total += c
		if c > maxCount {
			maxCount = c
		}
	}
	if total != 50000 {
		t.Fatalf("total words = %d, want 50000", total)
	}
	if float64(maxCount) < 0.05*float64(total) {
		t.Errorf("top word has %d/%d occurrences; expected strong skew", maxCount, total)
	}
	if len(counts) < 50 {
		t.Errorf("only %d distinct words; vocabulary collapse", len(counts))
	}
}

func TestBytesOfTextSizeAndShape(t *testing.T) {
	v := NewVocabulary(500, 2)
	g := NewTextGenerator(v, 1.1, 3)
	buf := g.BytesOfText(10000)
	if len(buf) < 10000 || len(buf) > 10000+200 {
		t.Fatalf("BytesOfText length = %d", len(buf))
	}
	if buf[len(buf)-1] != '\n' {
		t.Fatal("text does not end with newline")
	}
	if bytes.Contains(buf, []byte("\n\n")) {
		t.Fatal("empty lines in generated text")
	}
}

func TestWordsPerLineConfigurable(t *testing.T) {
	v := NewVocabulary(100, 2)
	g := NewTextGenerator(v, 1.1, 3)
	g.WordsPerLine = 3
	if n := len(strings.Fields(g.Line())); n != 3 {
		t.Fatalf("line has %d words, want 3", n)
	}
}

func TestZipfParameterClamped(t *testing.T) {
	v := NewVocabulary(100, 2)
	// s <= 1 is invalid for rand.Zipf; the constructor must clamp, not panic.
	g := NewTextGenerator(v, 0.5, 3)
	if g.Line() == "" {
		t.Fatal("clamped generator produced empty line")
	}
}

func TestSortGeneratorGeometry(t *testing.T) {
	g := NewSortGenerator(11)
	r := g.AppendRecords([]byte("prefix"), 2)[len("prefix"):]
	if len(r) != 200 || g.KeySize() != 10 || g.RecordSize() != 100 {
		t.Fatalf("2 records take %d bytes, KeySize %d, RecordSize %d; want 200, 10, 100", len(r), g.KeySize(), g.RecordSize())
	}
	for _, rec := range [][]byte{r[:100], r[100:]} {
		for _, b := range rec[:10] {
			if b < ' ' || b > '~' {
				t.Fatalf("non-printable key byte %d", b)
			}
		}
		for _, b := range rec[10:] {
			if b < 'A' || b > 'Z' {
				t.Fatalf("value byte %q is not a capital letter", b)
			}
		}
	}

	// A universe past 10^8 widens every skewed key alike, so key order
	// stays numeric order.
	for _, tc := range []struct{ universe, keyLen int }{{100, 12}, {100_000_000, 12}, {100_000_001, 13}} {
		sg := NewSkewedSortGenerator(3, 1.5, tc.universe)
		rec := sg.AppendRecords(nil, 1)
		if sg.KeySize() != tc.keyLen || sg.RecordSize() != tc.keyLen+90 || len(rec) != tc.keyLen+90 {
			t.Fatalf("universe %d: KeySize %d, RecordSize %d, record of %d bytes; want a %d-byte key", tc.universe, sg.KeySize(), sg.RecordSize(), len(rec), tc.keyLen)
		}
		if _, err := strconv.ParseUint(string(rec[len("key-"):tc.keyLen]), 10, 64); err != nil || string(rec[:4]) != "key-" {
			t.Fatalf("universe %d: key %q is not key- and digits", tc.universe, rec[:tc.keyLen])
		}
	}
}

func TestSortGeneratorDeterministicAndSpread(t *testing.T) {
	a := NewSortGenerator(20).AppendRecords(nil, 100)
	b := NewSortGenerator(20).AppendRecords(nil, 100)
	if !bytes.Equal(a, b) {
		t.Fatal("records diverge")
	}
	// Keys should be spread: first bytes should cover a wide range.
	firstBytes := make(map[byte]bool)
	for i := 0; i < len(a); i += 100 {
		firstBytes[a[i]] = true
	}
	if len(firstBytes) < 30 {
		t.Errorf("keys poorly spread: %d distinct first bytes", len(firstBytes))
	}
}

// TestTeraSortInputByteIdentical holds TeraSort's input to digests taken
// from the generators that made a record as two allocations (a key and a
// value) and a split as a slice of kv.Pairs: the record stream, the range
// cuts for 2 and 16 reducers, and, through TeraSort itself, every split's
// ID, byte length and records with the partition each lands in.
func TestTeraSortInputByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		skew                 int64
		stream, cuts, splits string
	}{
		{"uniform", 0,
			"3830af88a1136a0799f793e9f9fe459223edf7fcbe1fce3ca14db76ffa775de4",
			"88fd888515135f9fb1184bde492cad288f635397e3672bd8e030944ff52a9b6d",
			"ea2f39b249f0213f7d06e18e54ddb7ab0c0a24a59d68501f464c71ed7cbfe080"},
		{"skew=150", 150,
			"31ced634dce94947c13469e9c4c87522369218d65f7dae5484f039b9986d2e0e",
			"8c3c12e8388e3f1a3786d5dcb83f8ea43aa9c558491ae962d81d6c0757447414",
			"ca3f7b593f7c904fa8066705c32834f06a7a0e7f1292148d2f5cb97683aba9c0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const records = 100_000
			var block []byte
			var keyLen, recLen int
			if tc.skew > 0 {
				g := NewSkewedSortGenerator(7, float64(tc.skew)/100, records/4+2)
				block, keyLen, recLen = g.AppendRecords(nil, records), g.KeySize(), g.RecordSize()
			} else {
				g := NewSortGenerator(7)
				block, keyLen, recLen = g.AppendRecords(nil, records), g.KeySize(), g.RecordSize()
			}
			check := func(what, want string, sum []byte) {
				t.Helper()
				if got := hex.EncodeToString(sum); got != want {
					t.Errorf("%s digest %s, want %s", what, got, want)
				}
			}
			stream := sha256.Sum256(block)
			check("record stream", tc.stream, stream[:])

			h := sha256.New()
			for _, reducers := range []int{2, 16} {
				cuts, err := sampleCuts([]mapred.Split{mapred.NewRecordSplit(0, block, keyLen, recLen)}, reducers)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cuts {
					h.Write(binary.AppendUvarint(nil, uint64(len(c))))
					h.Write(c)
				}
			}
			check("range cuts", tc.cuts, h.Sum(nil))

			job, splits, err := TeraSort(map[string]int64{"records": records, "splits": 16, "reducers": 2, "seed": 7, "skew": tc.skew})
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			for _, s := range splits {
				h.Write(binary.AppendUvarint(nil, uint64(s.ID())))
				h.Write(binary.AppendUvarint(nil, uint64(s.(interface{ Len() int }).Len())))
				if err := s.Records(func(k, v []byte) error {
					h.Write(k)
					h.Write(v)
					h.Write([]byte{byte(job.Partitioner(k, job.NumReducers))})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			check("splits", tc.splits, h.Sum(nil))
		})
	}
}

// TestTeraSortInputAllocatesPerSplit: TeraSort's input is one block cut into
// splits, so building it allocates per split and per range cut, not per
// record (it was two objects and a pointer-bearing header per record, which
// every GC cycle of a sort job then marked).
func TestTeraSortInputAllocatesPerSplit(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() {
		if _, _, err := TeraSort(map[string]int64{"records": 100_000, "splits": 16, "reducers": 2, "seed": 7}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Fatalf("TeraSort of 100 000 records allocates %.0f times, want under 100", allocs)
	}
}
