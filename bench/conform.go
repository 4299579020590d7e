package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"time"

	"shardstore/internal/core"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
)

// detectBug is the seeded fault the traced pass hunts, armed and budgeted as
// TestDetectSeededBugs does.
const (
	detectBug   = faults.Bug2CacheNotDrained
	detectCases = 4000
)

// conformanceConfig is the harness run the workload measures: the full
// alphabet on the harness's own 128 B-page geometry. Every default is spelled
// out so that the sequences generated here are the ones core.Run generates.
func conformanceConfig(seed int64) core.Config {
	cfg := core.Config{
		Seed:              seed,
		OpsPerCase:        40,
		Bias:              core.DefaultBias(),
		EnableCrashes:     true,
		EnableReboots:     true,
		EnableFailures:    true,
		EnableGroupCommit: true,
		EnableCompaction:  true,
		EnableScan:        true,
		Workers:           1,
	}
	cfg.StoreConfig.Disk = disk.DefaultConfig()
	cfg.StoreConfig.Bugs = faults.NewSet()
	cfg.StoreConfig.UUIDZeroBias = cfg.Bias.UUIDZeroBias
	return cfg
}

// harnessCounters are the registry counters the conformance workload reads:
// the device traffic that device_us_per_op and write_amp price.
var harnessCounters = []string{"disk.reads", "disk.writes", "disk.syncs", "disk.bytes_read", "disk.bytes_written"}

// runConformance drives the conformance harness one case at a time: case i is
// the sequence core.Run{Seed, Workers: 1} runs as its case i, so a failure
// here reproduces there. Driving the cases itself lets the driver time each
// one, count the bytes its sequence puts, and read its device traffic: every
// case gets a registry of its own, as the harness expects (it compares the
// disk's injected-error counter with its own tally), and the driver sums them.
func runConformance(p *pass) error {
	cfg := conformanceConfig(p.seed)
	total := make(map[string]uint64)
	next := 0
	runCases := func(n int) {
		for i := 0; i < n; i++ {
			p.conformanceCase(cfg, next, total)
			next++
		}
	}
	build := func() error {
		next = 0
		runCases(p.warm)
		return nil
	}
	if err := p.setUp(build, func() {}); err != nil {
		return err
	}
	snap := func() obs.Snapshot { return obs.Snapshot{Counters: maps.Clone(total)} }
	p.timed(snap, func() { runCases(p.ops) })
	if p.traced() {
		p.detect()
	}
	return nil
}

func (p *pass) conformanceCase(cfg core.Config, i int, total map[string]uint64) {
	o := obs.New(nil)
	if p.traced() {
		o = tracedObs()
	}
	cfg.StoreConfig.Obs = o
	seq := core.GenerateSeq(rand.New(rand.NewSource(prop.CaseSeed(cfg.Seed, i))), cfg)
	root := p.rec.start(spOp, 0, uint32(i+1))
	id := p.rec.start(spCoreCase, root, uint32(i+1))
	t0 := time.Now()
	ops, crashes, err := core.RunSeq(seq, cfg)
	d := time.Since(t0)
	p.rec.finish(id)
	p.rec.finish(root)
	p.observe(clsCase, d)
	if p.timing {
		p.attempted++
		p.caseOps += int64(ops)
		p.crashes += int64(crashes)
		p.userBytes += int64(core.StatsOf(seq).BytesWritten)
		for _, name := range harnessCounters {
			total[name] += o.Counter(name).Value()
		}
	}
	if err != nil {
		p.violate("case %d of seed %d: %v", i, cfg.Seed, err)
	}
}

// detect arms one seeded fault and runs the harness until it is found and
// minimized: what a validation run costs when there is something to find.
func (p *pass) detect() {
	t0 := time.Now()
	res := core.DetectSequentialN(detectBug, p.seed, detectCases, 1)
	p.detectMs = float64(time.Since(t0)) / 1e6
	p.detectCases = int64(res.CasesNeeded)
	if !res.Detected {
		fmt.Fprintf(os.Stderr, "bench: %v not detected within %d cases at seed %d\n", detectBug, detectCases, p.seed)
	}
}
