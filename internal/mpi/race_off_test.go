//go:build !race

package mpi

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
