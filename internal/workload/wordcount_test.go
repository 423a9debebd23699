package workload

import (
	"bytes"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
)

// FuzzWordCountFields holds WordCountJob's mapper to bytes.Fields: for any
// line it emits exactly bytes.Fields(line), in order, each word with the
// value 1. The committed corpus covers the Unicode spaces above ASCII
// (U+0085, U+00A0, U+2028, U+3000), invalid and truncated UTF-8, NUL and the
// ASCII control spaces, runs of spaces at either end, and empty and all-space
// lines.
func FuzzWordCountFields(f *testing.F) {
	mapper := WordCountJob(1).Mapper
	one := kv.AppendVLong(nil, 1)
	f.Fuzz(func(t *testing.T, line []byte) {
		var got [][]byte
		err := mapper.Map(nil, line, func(k, v []byte) error {
			if !bytes.Equal(v, one) {
				t.Fatalf("word %q emitted with value %x, want %x", k, v, one)
			}
			got = append(got, append([]byte(nil), k...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Fields(line)
		if len(got) != len(want) {
			t.Fatalf("line %q: %d words %q, bytes.Fields gives %d %q", line, len(got), got, len(want), want)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("line %q: word %d is %q, bytes.Fields gives %q", line, i, got[i], want[i])
			}
		}
	})
}

// wordCountText is one 256 KiB split's worth of the benchmark's WordCount
// text: the fixed vocabulary NewVocabulary(500, 1) under Zipf 1.15.
func wordCountText() []byte {
	return NewTextGenerator(NewVocabulary(500, 1), 1.15, 7).BytesOfText(256 << 10)
}

// mapSplit runs mapper over every record of split, as a map task does.
func mapSplit(split *mapred.LineSplit, mapper mapred.Mapper, emit mapred.Emit) error {
	return split.Records(func(k, v []byte) error { return mapper.Map(k, v, emit) })
}

// TestWordCountMapAllocs gates the map side of the WordCount job: reading a
// split and tokenising its lines allocates nothing per line or per word, only
// the offset-key slabs. The gate is one allocation per 500 lines; a tokeniser
// that allocates per line (bytes.Fields) or an offset key allocated per line
// each cost thousands.
func TestWordCountMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes and allocates")
	}
	text := wordCountText()
	split := mapred.NewLineSplit(0, text)
	mapper := WordCountJob(1).Mapper
	words := 0
	emit := func(_, _ []byte) error { words++; return nil }
	allocs := testing.AllocsPerRun(10, func() {
		if err := mapSplit(split, mapper, emit); err != nil {
			t.Fatal(err)
		}
	})
	lines := bytes.Count(text, []byte{'\n'})
	t.Logf("%d lines per split: %.0f allocations", lines, allocs)
	if words == 0 {
		t.Fatal("the mapper emitted no words")
	}
	if budget := float64(lines / 500); allocs > budget {
		t.Fatalf("mapping a %d-line split allocates %.0f times, budget %.0f (one per 500 lines)", lines, allocs, budget)
	}
}

// BenchmarkWordCountMap is the map side of the WordCount job over one 256 KiB
// split: MB/s of input, and allocs/op is allocations per split.
func BenchmarkWordCountMap(b *testing.B) {
	text := wordCountText()
	split := mapred.NewLineSplit(0, text)
	mapper := WordCountJob(1).Mapper
	emit := func(_, _ []byte) error { return nil }
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mapSplit(split, mapper, emit); err != nil {
			b.Fatal(err)
		}
	}
}
