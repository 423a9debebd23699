package experiments

import (
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// TestTransportWordCountByteIdentical is the transport suite's equality
// gate as a standalone test: the same deterministic WordCount over every
// transport (plus the ring's copying device emulation, which the bench
// table doesn't sweep) must produce byte-identical canonical output.
// CI runs this under -race: the ring's slot publication and the vectored
// TCP writer are exactly the code a data race would corrupt.
func TestTransportWordCountByteIdentical(t *testing.T) {
	cfg := SmokeTransportBench()
	if err := transportEqualityGate(cfg); err != nil {
		t.Fatal(err)
	}

	// ring+copy against the chan reference, same workload.
	vocab := workload.NewVocabulary(500, 33)
	text := workload.NewTextGenerator(vocab, 1.15, cfg.Seed).BytesOfText(int(cfg.WCBytes))
	splits := mapred.SplitText(text, int(cfg.WCSplit))
	job := liveWordCountJob()
	job.NumReducers = cfg.WCReducers

	outputs := map[string][]kv.Pair{}
	for _, name := range []string{"chan", "ring+copy"} {
		tname := name
		result, err := mapred.RunOnWorld(job, splits, cfg.WCMappers, func(n int) (*mpi.World, error) {
			return NewTransportWorld(tname, n)
		})
		if err != nil {
			t.Fatalf("wordcount over %s: %v", name, err)
		}
		outputs[name] = result.Pairs()
	}
	if !pairsEqual(outputs["chan"], outputs["ring+copy"]) {
		t.Fatal("ring+copy wordcount output differs from chan")
	}
}

// TestNewTransportWorldRejectsUnknown pins the error path every
// -transport flag shares.
func TestNewTransportWorldRejectsUnknown(t *testing.T) {
	if _, err := NewTransportWorld("carrier-pigeon", 2); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
