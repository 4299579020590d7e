package core

import (
	"strings"
	"testing"

	"shardstore/internal/faults"
	"shardstore/internal/shuttle"
)

// TestConcurrencyHarnessesCleanBaseline: with all faults fixed, no harness
// may fail under any strategy — otherwise the detections below are noise.
func TestConcurrencyHarnessesCleanBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("shuttle exploration skipped under -race: its goroutine-handoff scheduler is ~10x slower with the detector and runs one goroutine at a time by construction")
	}
	harnesses := map[string]func(*faults.Set) func(){
		"fig4":     Fig4Harness,
		"bug11":    Bug11Harness,
		"bug12":    Bug12Harness,
		"bug13":    Bug13Harness,
		"bug14":    Bug14Harness,
		"bug15":    Bug15Harness,
		"bug16":    Bug16Harness,
		"linz":     LinearizabilityHarness,
		"scanlinz": ScanLinearizabilityHarness,
		"maintain": MaintainHarness,
	}
	for name, h := range harnesses {
		name, h := name, h
		t.Run(name, func(t *testing.T) {
			body := h(faults.NewSet())
			rep := shuttle.Explore(shuttle.Options{Strategy: shuttle.NewRandom(17), Iterations: 300}, body)
			logLockCoverage(t, rep)
			if rep.Failed() {
				t.Fatalf("clean baseline failed: %v", rep.First())
			}
			rep = shuttle.Explore(shuttle.Options{Strategy: shuttle.NewPCT(23, 3, 4000), Iterations: 200}, body)
			logLockCoverage(t, rep)
			if rep.Failed() {
				t.Fatalf("clean baseline failed under PCT: %v", rep.First())
			}
		})
	}
}

// TestDetectConcurrencyBugs: each seeded concurrency bug (Fig 5 #11–#16)
// must be found by stateless model checking.
func TestDetectConcurrencyBugs(t *testing.T) {
	if raceEnabled {
		t.Skip("shuttle exploration skipped under -race; see TestConcurrencyHarnessesCleanBaseline")
	}
	bugs := []struct {
		bug        faults.Bug
		iterations int
		strategy   shuttle.Strategy
	}{
		// Bugs #11 and #14 need one thread starved across a long window —
		// the scheduling shape PCT [5] is designed to produce and a uniform
		// random walk essentially never does.
		{faults.Bug11WriteFlushRace, 4000, shuttle.NewPCT(5, 3, 4000)},
		{faults.Bug12BufferPoolDeadlock, 3000, shuttle.NewRandom(5)},
		{faults.Bug13ListRemoveRace, 3000, shuttle.NewRandom(5)},
		{faults.Bug14CompactionReclaimRace, 8000, shuttle.NewPCT(11, 3, 3000)},
		{faults.Bug15RefModelLocatorReuse, 2000, shuttle.NewRandom(5)},
		{faults.Bug16BulkCreateRemoveRace, 3000, shuttle.NewRandom(5)},
	}
	for _, tc := range bugs {
		tc := tc
		t.Run(tc.bug.String(), func(t *testing.T) {
			res, rep := DetectConcurrent(tc.bug, tc.strategy, tc.iterations)
			if !res.Detected {
				t.Fatalf("%v not detected in %d iterations (%d steps)", tc.bug, rep.Iterations, rep.TotalSteps)
			}
			f := rep.First()
			t.Logf("%v detected at iteration %d (%v): %s", tc.bug, f.Iteration, f.Kind, truncate(f.Err, 120))
			// The failing schedule must replay deterministically.
			body := ConcurrencyHarnessFor(tc.bug)(faults.NewSet(tc.bug))
			if r := shuttle.Replay(body, f.Trace, 400000); r == nil {
				t.Fatalf("%v: failure did not replay from its trace", tc.bug)
			}
		})
	}
}

// logLockCoverage logs how much locking the lock-discipline checker saw in
// one iteration of a harness: lock instances and acquired-while-holding
// edges.
func logLockCoverage(t *testing.T, rep shuttle.Report) {
	t.Helper()
	t.Logf("%s: %d iterations, lock checker saw up to %d lock instances and %d order edges per iteration",
		rep.Strategy, rep.Iterations, rep.LockInstances, rep.LockEdges)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// TestMaintainDurableHarnessReproducesBlockedWritebacks pins the open
// defect MaintainHarness's durable instance reproduces (ROADMAP item
// 16(iii)): a WaitDurable racing a maintenance tick returns "dep: N
// writebacks blocked", and the schedule replays. When the defect is fixed
// this test fails; move the durable instance into the clean baseline then.
func TestMaintainDurableHarnessReproducesBlockedWritebacks(t *testing.T) {
	if raceEnabled {
		t.Skip("shuttle exploration skipped under -race; see TestConcurrencyHarnessesCleanBaseline")
	}
	body := maintainHarness(faults.NewSet(), true)
	rep := shuttle.Explore(shuttle.Options{Strategy: shuttle.NewRandom(17), Iterations: 50}, body)
	if !rep.Failed() {
		t.Fatal("durable maintain harness is clean: move it into TestConcurrencyHarnessesCleanBaseline")
	}
	f := rep.First()
	if !strings.Contains(f.Err, "durable write: dep:") || !strings.Contains(f.Err, "writebacks blocked") {
		t.Fatalf("durable maintain harness failed differently: %v", f)
	}
	if shuttle.Replay(body, f.Trace, 400000) == nil {
		t.Fatal("blocked-writebacks failure did not replay from its trace")
	}
	t.Logf("reproduced at iteration %d: %s", f.Iteration, f.Err)
}
