package core

import (
	"fmt"
	"math/rand"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
)

// TestTraceDeterminismGate extends the observability transparency gate to
// request-span tracing: attaching a span tracer (which adds the harness's
// per-op spans, clock reads, background-activity windows on the disk-sync,
// compaction, scrub, and reclamation paths, and the zero-length windows
// stamped for injected faults, rot, crashes, quarantines, and scrub
// verdicts) must not change any harness verdict or any durable disk byte.
// Each seed's sequence runs twice — spans off, then on with a slow log — and
// the gate diffs progress, verdict text, and the final durable disk images.
// CI runs this test by name as the "trace determinism gate" leg.
func TestTraceDeterminismGate(t *testing.T) {
	modes := []struct {
		name string
		mut  func(*Config)
	}{
		{"clean-everything", func(c *Config) {
			c.EnableCrashes = true
			c.EnableReboots = true
			c.EnableFailures = true
			c.EnableControlPlane = true
		}},
		// Group commit is where span code sits closest to the durability
		// decision (the leader's sync window, follower barrier stages): the
		// barrier must coalesce identically with the tracer attached.
		{"group-commit", func(c *Config) {
			c.EnableCrashes = true
			c.EnableReboots = true
			c.EnableGroupCommit = true
		}},
		// A seeded bug: the exact same violation must surface with spans on.
		{"failing-verdict", func(c *Config) {
			c.EnableCrashes = true
			c.EnableReboots = true
			c.StoreConfig.Bugs = faults.NewSet(faults.Bug2CacheNotDrained)
		}},
	}
	runOnce := func(cfg Config, seed int64, withSpans bool) (int, int, *disk.Disk, error, *obs.Obs) {
		ccfg := cfg
		var o *obs.Obs
		if withSpans {
			o = obs.New(nil).WithSpans(64, 2)
			ccfg.StoreConfig.Obs = o
		}
		seq := GenerateSeq(rand.New(rand.NewSource(seed)), ccfg)
		ops, crashes, d, err := RunSeqDisk(seq, ccfg)
		return ops, crashes, d, err, o
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			cfg := Config{Seed: 11, Cases: 1, OpsPerCase: 60, Bias: DefaultBias()}
			m.mut(&cfg)
			cfg = cfg.withDefaults()
			for i := 0; i < 8; i++ {
				seed := prop.CaseSeed(cfg.Seed, i)
				opsOff, crashesOff, dOff, errOff, _ := runOnce(cfg, seed, false)
				opsOn, crashesOn, dOn, errOn, o := runOnce(cfg, seed, true)
				if opsOff != opsOn || crashesOff != crashesOn {
					t.Fatalf("seed %d: progress diverged with spans: ops %d vs %d, crashes %d vs %d",
						seed, opsOff, opsOn, crashesOff, crashesOn)
				}
				if fmt.Sprint(errOff) != fmt.Sprint(errOn) {
					t.Fatalf("seed %d: verdict diverged:\n  spans off: %v\n  spans on:  %v", seed, errOff, errOn)
				}
				if !disk.DurableEqual(dOff, dOn) {
					t.Fatalf("seed %d: final durable disk images differ with span tracing enabled", seed)
				}
				// Guard against a vacuous gate: the tracer must be live, the
				// harness must have opened a span per applied op, and the
				// instrumented run must have metered real work.
				if o.Tracer() == nil {
					t.Fatalf("seed %d: span tracer not attached", seed)
				}
				snap := o.Snapshot()
				if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
					t.Fatalf("seed %d: instrumented run recorded no metrics", seed)
				}
				if spans := snap.Counters["trace.spans"]; spans < uint64(opsOn) {
					t.Fatalf("seed %d: %d harness spans for %d applied ops", seed, spans, opsOn)
				}
				// And the span machinery itself must still work on top of the
				// instrumented run's clock.
				sp := o.Tracer().Start(0, "probe", "")
				sp.Finish()
				if traces, _ := o.Tracer().Completed(); traces[len(traces)-1].Op != "probe" {
					t.Fatalf("seed %d: tracer not functional after run", seed)
				}
			}
		})
	}
}
