//go:build race

package workload

// raceEnabled reports that the race detector is instrumenting this build;
// sync.Pool then drops a share of its puts by design, so allocation budgets
// that rest on pooled reuse do not apply.
const raceEnabled = true
