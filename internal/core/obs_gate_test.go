package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
)

// runGateOnce executes one generated sequence and returns its verdict plus
// the final disk, on the harness's own Obs or a caller-supplied metrics-only one.
func runGateOnce(cfg Config, seed int64, withObs bool) (int, int, *disk.Disk, error, *obs.Obs) {
	ccfg := cfg
	var o *obs.Obs
	if withObs {
		o = obs.New(nil)
		ccfg.StoreConfig.Obs = o
	}
	seq := GenerateSeq(rand.New(rand.NewSource(seed)), ccfg)
	ops, crashes, d, err := RunSeqDisk(seq, ccfg)
	return ops, crashes, d, err, o
}

// TestObservabilityDeterminismGate enforces the transparency property the
// observability layer is built around: attaching a metrics registry to the
// node must not change any harness verdict or any on-disk byte. Each seed's
// sequence runs twice — on the harness's own Obs, then on a caller-supplied
// metrics-only one — and the gate diffs (ops applied, crashes taken,
// violation text) and the final durable disk images. Spans are
// TestTraceDeterminismGate's half. CI runs this test by name as the
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
// counterexample arrives with its replayed trail — one span per minimized op
// in order, plus a "check" span when the violation surfaced in the final
// check, nothing overwritten — and the span where the violation surfaced
// carries its full text, so the traced replay provably reproduced the
// verdict. Bug #2 (cache not drained on extent reset) at seed 7 minimizes to
// 20 ops and surfaces in the periodic check after the last one, after a
// reclamation recycled extent 3; that op's span names the reclamation
// window. The rendered report is the same at any worker count.
func TestFailureCarriesTrace(t *testing.T) {
	report := func(workers int) *Failure {
		cfg := DetectionConfig(faults.Bug2CacheNotDrained, 7)
		cfg.Cases = 400
		cfg.Workers = workers
		res := Run(cfg)
		if res.Failure == nil {
			t.Fatalf("workers=%d: bug #2 not detected within %d cases at seed 7", workers, cfg.Cases)
		}
		return res.Failure
	}
	f := report(1)
	if f.Case != 31 || len(f.Minimized) != 20 {
		t.Fatalf("bug #2 at seed 7: case %d minimized to %d ops, want case 31, 20 ops", f.Case, len(f.Minimized))
	}
	if f.TraceTruncated != 0 {
		t.Fatalf("trace truncated: %d spans overwritten", f.TraceTruncated)
	}
	// The violation keeps the store's own error, which names the stale
	// locator the undrained cache served.
	if msg := f.MinimizedErr.Error(); !strings.Contains(msg, `locator chunk@e3+256:62 owned by "k09", want "k14"`) {
		t.Fatalf("minimized violation lost the store's error: %s", msg)
	}
	want := make([]string, 0, len(f.Minimized)+1)
	for _, op := range f.Minimized {
		want = append(want, op.String())
	}
	if strings.HasPrefix(f.MinimizedErr.Error(), "final check:") {
		want = append(want, "check")
	}
	var got []string
	for _, tr := range f.Trace {
		got = append(got, tr.Op)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace spans do not follow the minimized ops:\n got  %q\n want %q", got, want)
	}

	var violations []string
	for _, tr := range f.Trace {
		for _, n := range tr.Notes {
			if n.Layer == "harness" {
				violations = append(violations, n.Note)
			}
		}
	}
	if len(violations) != 1 || violations[0] != f.MinimizedErr.Error() {
		t.Fatalf("harness notes %q, want exactly the minimized violation %q", violations, f.MinimizedErr)
	}

	reclaimed := false
	for _, tr := range f.Trace {
		if tr.Op != "Reclaim(extent 3)" {
			continue
		}
		for _, n := range tr.Notes {
			if n.Layer == "chunk" && n.Note == "reclaim e3" {
				reclaimed = true
			}
		}
	}
	if !reclaimed {
		t.Fatalf("no Reclaim(extent 3) span carries the chunk reclaim e3 window:\n%s", f.FormatTrace())
	}

	if one, four := f.FormatTrace(), report(4).FormatTrace(); one != four {
		t.Fatalf("report differs between 1 and 4 workers:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
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
