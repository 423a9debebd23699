package hadoop

import (
	"testing"

	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/obs"
	"github.com/ict-repro/mpid/internal/workload"
)

// BenchmarkWordCountEvents measures the flight recorder's cost on a live
// WordCount: the same job with event emission off (nil recorder — every
// Emit is a nil-receiver early return) and on. Emission is control-plane
// only — per attempt, spill and failure, never per record — so the two
// sub-benchmarks must stay within the noise of each other (the PR's
// acceptance budget is <3% overhead).
func BenchmarkWordCountEvents(b *testing.B) {
	vocab := workload.NewVocabulary(300, 1)
	text := workload.NewTextGenerator(vocab, 1.1, 2).BytesOfText(256 << 10)
	splits := mapred.SplitText(text, 16_000)
	job := mapred.Job{
		Name:        "wc",
		Mapper:      wcMapper,
		Reducer:     wcReducer,
		Combiner:    mapred.CombinerFromReducer(wcReducer),
		NumReducers: 2,
	}
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, _, err := runJob(job, splits, Config{NumTrackers: 3, Telemetry: obs.Telemetry{Events: rec}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, obs.NewRecorder(0)) })
}
