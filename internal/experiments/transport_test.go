package experiments

import (
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestTransportWordCountByteIdentical runs the same deterministic WordCount
// over every transport NewTransportWorld builds and requires byte-identical
// canonical output. CI runs this under -race: the ring's slot publication
// and the vectored TCP writer are exactly the code a data race would
// corrupt.
func TestTransportWordCountByteIdentical(t *testing.T) {
	vocab := workload.NewVocabulary(500, 33)
	text := workload.NewTextGenerator(vocab, 1.15, 1).BytesOfText(64 << 10)
	splits := mapred.SplitText(text, 16<<10)
	job := workload.WordCountJob(2)

	var ref []byte
	for _, name := range TransportNames {
		result, err := mapred.RunOnWorld(job, splits, 2, func(n int) (*mpi.World, error) {
			return NewTransportWorld(name, n)
		})
		if err != nil {
			t.Fatalf("wordcount over %s: %v", name, err)
		}
		var canon []byte
		for _, p := range result.Pairs() {
			canon = kv.AppendPair(canon, p)
		}
		if len(canon) == 0 {
			t.Fatalf("wordcount over %s produced no output", name)
		}
		if ref == nil {
			ref = canon
		} else if string(canon) != string(ref) {
			t.Errorf("wordcount over %s differs from %s (%d vs %d canonical bytes)",
				name, TransportNames[0], len(canon), len(ref))
		}
	}
}

// TestNewTransportWorldRejectsUnknown pins the error path every
// -transport flag shares.
func TestNewTransportWorldRejectsUnknown(t *testing.T) {
	if _, err := NewTransportWorld("carrier-pigeon", 2); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
