//go:build !race

package workload

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
