//go:build race

package mpi

// raceEnabled reports that the race detector is instrumenting this build;
// sync.Pool then drops a share of its puts by design, so the pooled TCP
// frame path cannot be allocation-free.
const raceEnabled = true
