package core

import (
	"testing"

	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// TestCoverageBlindSpotAnecdote reproduces the paper's §8.3 missed-bug
// story: "our existing property-based tests had trouble reaching the
// cache-miss code path in this change because the cache size was configured
// to be very large in all tests ... after reducing the cache size, the
// tests automatically found the issue. This missed bug was one motivation
// for our work on coverage metrics."
//
// With an oversized buffer cache the harness never hits the miss path; the
// coverage registry exposes the blind spot, and shrinking the cache closes
// it. (The §8.3 bug itself lived on the miss path; every cache bug seeded
// here (#2) needs that path too, so the blind spot is exactly the state the
// paper warns about.)
func TestCoverageBlindSpotAnecdote(t *testing.T) {
	run := func(cacheCapacity int) obs.Probes {
		cfg := Config{
			Seed: 31, Cases: 60, OpsPerCase: 40, Bias: DefaultBias(),
			StoreConfig: store.Config{CacheCapacity: cacheCapacity},
		}
		res := Run(cfg)
		if res.Failure != nil {
			t.Fatalf("clean run failed: %v", res.Failure.Err)
		}
		return res.Probes
	}

	// Oversized cache: the workload's whole working set fits, so only
	// evictions could produce misses — the miss path may go dark.
	huge := run(100000)
	// Right-sized cache: misses are routine.
	small := run(4)

	missProbe := "cache.miss"
	if small[missProbe] == 0 {
		t.Fatalf("small cache never missed — probe wiring broken?\n%s", small.Report("cache"))
	}
	if small[missProbe] <= huge[missProbe] {
		t.Fatalf("shrinking the cache should increase miss coverage: small=%d huge=%d",
			small[missProbe], huge[missProbe])
	}
	// The monitoring workflow: declare the probes the harness must reach and
	// let Missing flag erosion.
	wanted := []string{"cache.miss", "cache.hit", "lsm.flush", "chunk.reclaim.reset", "store.put", "store.get"}
	if missing := small.Missing(wanted); len(missing) != 0 {
		t.Fatalf("coverage erosion with a right-sized cache: %v", missing)
	}
	t.Logf("huge-cache misses=%d, small-cache misses=%d (blind spot visible in metrics)",
		huge[missProbe], small[missProbe])
}

// TestHarnessCoverageOfSeededSites verifies the harness actually reaches the
// code sites where the Fig 5 bugs live — the precondition for the detection
// experiment to be meaningful (§4.2's purpose for coverage metrics).
func TestHarnessCoverageOfSeededSites(t *testing.T) {
	cfg := Config{
		Seed: 37, Cases: 250, OpsPerCase: 50, Bias: DefaultBias(),
		EnableCrashes: true, EnableReboots: true, EnableFailures: true, EnableControlPlane: true,
	}
	res := Run(cfg)
	if res.Failure != nil {
		t.Fatalf("clean run failed: %v", res.Failure.Err)
	}
	cov := res.Probes
	wanted := []string{
		"chunk.reclaim.evacuated", // bug #1/#5/#10 scan territory
		"chunk.reclaim.garbage",   // garbage-drop path
		"cache.drain",             // bug #2 site (fixed path)
		"lsm.flush",               // bug #3 territory
		"store.clean_shutdown",    // bug #3/#4 trigger
		"store.return_to_service", // bug #4 site
		"extent.reset",            // bug #7 site
		"extent.superblock.flush", // bug #6/#8 territory
		"store.crash",             // §5 crash states
		"disk.fail.transient",     // §4.4 failure injection
		"extent.recover",          // recovery path
	}
	if missing := cov.Missing(wanted); len(missing) != 0 {
		t.Fatalf("harness blind spots: %v\n%s", missing, cov.Report(""))
	}
}
