package experiments

import (
	"fmt"
	"io"
	"time"

	"shardstore/internal/core"
	"shardstore/internal/faults"
)

// CrashGrid reproduces the §5 comparison between the paper's default
// coarse-grained crash states (per-component RebootType flushes plus
// interleaved flush operations) and the exhaustive block-level enumeration
// ("similar to BOB and CrashMonkey"): the exhaustive variant "has not found
// additional bugs and is dramatically slower to test".
//
// Both modes run the same budgets against (a) the fixed implementation
// (expect: nothing found) and (b) seeded crash-consistency bug #8 (expect:
// both modes find it; coarse mode is much faster per sequence).
//
// The four cells run one after another — the coarse-vs-exhaustive wall-time
// ratio is the experiment's headline and co-running cells would distort it —
// but each cell's sequences fan out across the shared worker pool (Workers
// wide), so the grid still scales with the machine and the ratio compares
// like with like.
func CrashGrid(w io.Writer, quick bool) error {
	header(w, "§5: coarse vs block-level crash states")
	cleanCases := 400
	bugCases := 4000
	if quick {
		cleanCases = 100
		bugCases = 1000
	}

	type cell struct {
		mode    string
		target  string
		cases   int
		found   bool
		foundAt int
		crashes int64
		elapsed time.Duration
	}
	var cells []cell

	run := func(mode string, exhaustive bool, target string, bugs *faults.Set, cases int) {
		cfg := core.Config{
			Seed:       21,
			Cases:      cases,
			OpsPerCase: 30,
			Bias:       core.DefaultBias(),
			Minimize:   false,

			EnableCrashes:   true,
			EnableReboots:   true,
			ExhaustiveCrash: exhaustive,

			Workers: Workers,
		}
		cfg.StoreConfig.Bugs = bugs
		start := time.Now() //shardlint:allow determinism wall-clock experiment timing column, not a replayed path
		res := core.Run(cfg)
		c := cell{mode: mode, target: target, cases: res.Cases, crashes: res.Crashes, elapsed: time.Since(start)} //shardlint:allow determinism wall-clock experiment timing column, not a replayed path
		if res.Failure != nil {
			c.found = true
			c.foundAt = res.Failure.Case + 1
		}
		cells = append(cells, c)
	}

	run("coarse (RebootType)", false, "fixed code", faults.NewSet(), cleanCases)
	run("block-level exhaustive", true, "fixed code", faults.NewSet(), cleanCases)
	run("coarse (RebootType)", false, "bug #8 seeded", faults.NewSet(faults.Bug8CacheWriteMissingDep), bugCases)
	run("block-level exhaustive", true, "bug #8 seeded", faults.NewSet(faults.Bug8CacheWriteMissingDep), bugCases)

	tb := newTable("crash-state mode", "target", "sequences", "crash states", "bug found", "at case", "wall time", "seq/s")
	for _, c := range cells {
		found := "no"
		at := "-"
		if c.found {
			found = "YES"
			at = fmt.Sprint(c.foundAt)
		}
		tb.add(c.mode, c.target, fmt.Sprint(c.cases), fmt.Sprint(c.crashes), found, at,
			fmtDuration(c.elapsed), fmt.Sprintf("%.0f", float64(c.cases)/c.elapsed.Seconds()))
	}
	tb.write(w)

	// The headline comparison: slowdown factor on the clean workload.
	if cells[0].elapsed > 0 {
		ratio := float64(cells[1].elapsed) / float64(cells[0].elapsed)
		fmt.Fprintf(w, "\nexhaustive block-level enumeration is %.1fx slower per clean sequence\n", ratio)
	}
	fmt.Fprintln(w, "(paper: the exhaustive variant found no additional bugs and is dramatically")
	fmt.Fprintln(w, " slower, so the coarse RebootType + interleaved component flushes are the default)")

	if cells[0].found || cells[1].found {
		return fmt.Errorf("crashgrid: clean run found a spurious failure")
	}
	if !cells[2].found {
		return fmt.Errorf("crashgrid: coarse mode missed bug #8")
	}
	return nil
}
