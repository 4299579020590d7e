package core

import (
	"testing"

	"shardstore/internal/faults"
	"shardstore/internal/shuttle"
)

// TestCompactionConcurrencyClean explores the compaction-vs-foreground
// harnesses under both a uniform random scheduler and PCT: with no faults
// seeded, no interleaving of compaction steps with foreground puts, gets,
// reclamation, or a crash may violate read-after-write or lose a
// durable-acknowledged key.
func TestCompactionConcurrencyClean(t *testing.T) {
	if raceEnabled {
		t.Skip("shuttle exploration skipped under -race; see TestConcurrencyHarnessesCleanBaseline")
	}
	harnesses := map[string]func(*faults.Set) func(){
		"foreground": CompactForegroundHarness,
		"crash":      CompactCrashHarness,
	}
	for name, h := range harnesses {
		name, h := name, h
		t.Run(name, func(t *testing.T) {
			body := h(faults.NewSet())
			rep := shuttle.Explore(shuttle.Options{Strategy: shuttle.NewRandom(17), Iterations: 300}, body)
			logLockCoverage(t, rep)
			if rep.Failed() {
				t.Fatalf("clean compaction baseline failed: %v", rep.First())
			}
			rep = shuttle.Explore(shuttle.Options{Strategy: shuttle.NewPCT(23, 3, 4000), Iterations: 200}, body)
			logLockCoverage(t, rep)
			if rep.Failed() {
				t.Fatalf("clean compaction baseline failed under PCT: %v", rep.First())
			}
		})
	}
}
