package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
)

// runGateOnce executes one generated sequence and returns its verdict plus
// the final disk, with or without observability attached.
func runGateOnce(cfg Config, seed int64, withObs bool) (int, int, *disk.Disk, error, *obs.Obs) {
	ccfg := cfg
	var o *obs.Obs
	if withObs {
		o = obs.New(nil).WithTrace(obs.DefaultRingEvents)
		ccfg.StoreConfig.Obs = o
	}
	seq := GenerateSeq(rand.New(rand.NewSource(seed)), ccfg)
	ops, crashes, d, err := RunSeqDisk(seq, ccfg)
	return ops, crashes, d, err, o
}

// TestObservabilityDeterminismGate enforces the transparency property the
// tracing layer is built around: attaching a metrics registry and a trace
// ring to the node must not change any harness verdict or any on-disk byte.
// Each seed's sequence runs twice — observability off, then on with a trace
// ring — and the gate diffs (ops applied, crashes taken, violation text) and
// the final durable disk images. CI runs this test by name as the
// "determinism gate" leg.
func TestObservabilityDeterminismGate(t *testing.T) {
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
		// Group commit in the alphabet: the barrier's scheduler metrics
		// (syncs, group sizes, barrier waits) must be as verdict-transparent
		// as every other probe.
		{"group-commit", func(c *Config) {
			c.EnableCrashes = true
			c.EnableReboots = true
			c.EnableGroupCommit = true
		}},
		// A seeded bug makes the sequence fail: the gate must see the exact
		// same violation with and without tracing attached.
		{"failing-verdict", func(c *Config) {
			c.EnableCrashes = true
			c.EnableReboots = true
			c.StoreConfig.Bugs = faults.NewSet(faults.Bug2CacheNotDrained)
		}},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			cfg := Config{Seed: 7, Cases: 1, OpsPerCase: 60, Bias: DefaultBias()}
			m.mut(&cfg)
			cfg = cfg.withDefaults()
			for i := 0; i < 8; i++ {
				seed := prop.CaseSeed(cfg.Seed, i)
				opsOff, crashesOff, dOff, errOff, _ := runGateOnce(cfg, seed, false)
				opsOn, crashesOn, dOn, errOn, o := runGateOnce(cfg, seed, true)
				if opsOff != opsOn || crashesOff != crashesOn {
					t.Fatalf("seed %d: progress diverged: ops %d vs %d, crashes %d vs %d",
						seed, opsOff, opsOn, crashesOff, crashesOn)
				}
				if fmt.Sprint(errOff) != fmt.Sprint(errOn) {
					t.Fatalf("seed %d: verdict diverged:\n  obs off: %v\n  obs on:  %v", seed, errOff, errOn)
				}
				if !disk.DurableEqual(dOff, dOn) {
					t.Fatalf("seed %d: final durable disk images differ with observability enabled", seed)
				}
				// The instrumented run must actually have observed something —
				// a trivially-empty registry would make the gate vacuous.
				snap := o.Snapshot()
				if len(snap.Counters) == 0 {
					t.Fatalf("seed %d: instrumented run recorded no metrics", seed)
				}
			}
		})
	}
}

// TestFailureCarriesTrace: when the fleet finds a violation, the minimized
// counterexample must arrive with the replayed execution trail attached.
func TestFailureCarriesTrace(t *testing.T) {
	cfg := DetectionConfig(faults.Bug2CacheNotDrained, 7)
	cfg.Cases = 400
	res := Run(cfg)
	if res.Failure == nil {
		t.Skip("seeded bug not detected within budget; trace attachment exercised elsewhere")
	}
	if len(res.Failure.Trace) == 0 {
		t.Fatal("failure has no trace attached")
	}
	sawHarness := false
	for _, ev := range res.Failure.Trace {
		if ev.Layer == "harness" {
			sawHarness = true
			break
		}
	}
	if !sawHarness {
		t.Fatal("trace has no harness-layer op events")
	}
	if out := res.Failure.FormatTrace(); out == "" {
		t.Fatal("FormatTrace returned empty output for non-empty trace")
	}
}

// TestSharedRegistryKeepsFaultAccounting: a StoreConfig.Obs reused across
// cases carries disk.injected_errs over from one to the next, and the
// harness must still tell whether its own injected faults have fired. The
// case reads a shard that spans extents while every extent has a fault armed:
// the store's own retry absorbs the first fault, the second surfaces, and the
// harness retries through it only while it counts faults outstanding. Run
// twice back to back on one registry, the case must get the verdict a private
// registry gives; with absolute counter readings the second run sees its
// faults as consumed by the first and reports the transient error as lost
// data.
func TestSharedRegistryKeepsFaultAccounting(t *testing.T) {
	cfg := Config{Seed: 7, Cases: 1}.withDefaults()
	extents := cfg.StoreConfig.Disk.ExtentCount
	big := bytes.Repeat([]byte{0xAB}, cfg.StoreConfig.Disk.ExtentBytes()+1)
	seq := []Op{{Kind: OpPut, Key: "big", Value: big}, {Kind: OpPump}}
	for round := 0; round < extents; round++ {
		for ext := 0; ext < extents; ext++ {
			seq = append(seq, Op{Kind: OpFailDiskOnce, Extent: ext})
		}
		seq = append(seq, Op{Kind: OpDrainCache}, Op{Kind: OpGet, Key: "big"})
	}

	private := cfg
	private.StoreConfig.Obs = obs.New(nil)
	_, _, wantErr := RunSeq(seq, private)
	if fired := private.StoreConfig.Obs.Snapshot().Counters["disk.injected_errs"]; fired < uint64(2*extents) {
		t.Fatalf("%d faults fired in %d reads: none surfaced past the store's retry", fired, extents)
	}
	shared := cfg
	shared.StoreConfig.Obs = obs.New(nil)
	for run := 0; run < 2; run++ {
		if _, _, gotErr := RunSeq(seq, shared); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("run %d: shared registry verdict %v, private registry verdict %v", run, gotErr, wantErr)
		}
	}
}
