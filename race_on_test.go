//go:build race

package shardstore_test

// raceEnabled reports whether this test binary was built with the race
// detector. The allocation budget skips under -race (the detector's own
// allocations land in the count); the gates that read the node's counters
// run either way.
const raceEnabled = true
