//go:build !race

package hdsampler

// raceEnabled reports the race detector is active: its instrumentation
// adds allocations, so allocation-ceiling tests skip themselves.
const raceEnabled = false
