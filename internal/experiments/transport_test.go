package experiments

import (
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestTransportWordCountByteIdentical runs the same deterministic WordCount
// over every transport NewTransportWorld builds, and over the ring in both
// of its modes, and requires byte-identical canonical output. CI runs this
// under -race: the ring's slot publication and the vectored TCP writer are
// exactly the code a data race would corrupt.
func TestTransportWordCountByteIdentical(t *testing.T) {
	vocab := workload.NewVocabulary(500, 33)
	text := workload.NewTextGenerator(vocab, 1.15, 1).BytesOfText(64 << 10)
	splits := mapred.SplitText(text, 16<<10)
	job := workload.WordCountJob(2)

	type row struct {
		name     string
		newWorld func(n int) (*mpi.World, error)
	}
	var rows []row
	for _, name := range TransportNames {
		rows = append(rows, row{name, func(n int) (*mpi.World, error) { return NewTransportWorld(name, n) }})
	}
	rows = append(rows,
		row{"ring", func(n int) (*mpi.World, error) { return mpi.NewRingWorld(n), nil }},
		row{"ring+copy", func(n int) (*mpi.World, error) {
			return mpi.NewRingWorldConfig(n, mpi.RingConfig{CopyPayloads: true}), nil
		}})

	var ref []byte
	for _, r := range rows {
		result, err := mapred.RunOnWorld(job, splits, 2, r.newWorld)
		if err != nil {
			t.Fatalf("wordcount over %s: %v", r.name, err)
		}
		var canon []byte
		for _, p := range result.Pairs() {
			canon = kv.AppendPair(canon, p)
		}
		if len(canon) == 0 {
			t.Fatalf("wordcount over %s produced no output", r.name)
		}
		if ref == nil {
			ref = canon
		} else if string(canon) != string(ref) {
			t.Errorf("wordcount over %s differs from %s (%d vs %d canonical bytes)",
				r.name, rows[0].name, len(canon), len(ref))
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
