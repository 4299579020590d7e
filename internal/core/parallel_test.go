package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"shardstore/internal/faults"
)

// runSnapshot captures everything the determinism guarantee covers: the
// Result fields, the failure identity, and the coverage totals.
type runSnapshot struct {
	cases    int
	ops      int64
	crashes  int64
	failCase int
	failSeed int64
	seq      []Op
	min      []Op
	errMsg   string
	minMsg   string
	cov      map[string]uint64
}

func snapshotRun(t *testing.T, cfg Config, workers int) runSnapshot {
	t.Helper()
	cfg.Workers = workers
	res := Run(cfg)
	s := runSnapshot{
		cases: res.Cases, ops: res.Ops, crashes: res.Crashes,
		failCase: -1,
		cov:      res.Probes,
	}
	if res.Failure != nil {
		s.failCase = res.Failure.Case
		s.failSeed = res.Failure.Seed
		s.seq = res.Failure.Seq
		s.min = res.Failure.Minimized
		s.errMsg = res.Failure.Err.Error()
		s.minMsg = res.Failure.MinimizedErr.Error()
	}
	return s
}

func assertSameSnapshot(t *testing.T, want, got runSnapshot, workers int) {
	t.Helper()
	if want.cases != got.cases || want.ops != got.ops || want.crashes != got.crashes {
		t.Fatalf("workers=%d totals diverge: cases %d/%d ops %d/%d crashes %d/%d",
			workers, got.cases, want.cases, got.ops, want.ops, got.crashes, want.crashes)
	}
	if want.failCase != got.failCase || want.failSeed != got.failSeed {
		t.Fatalf("workers=%d failure identity diverges: case %d/%d seed %d/%d",
			workers, got.failCase, want.failCase, got.failSeed, want.failSeed)
	}
	if !reflect.DeepEqual(want.seq, got.seq) {
		t.Fatalf("workers=%d failing sequence diverges", workers)
	}
	if !reflect.DeepEqual(want.min, got.min) {
		t.Fatalf("workers=%d minimized sequence diverges:\n%v\nvs\n%v", workers, got.min, want.min)
	}
	if want.errMsg != got.errMsg || want.minMsg != got.minMsg {
		t.Fatalf("workers=%d violation wording diverges:\n%q\nvs\n%q", workers, got.errMsg, want.errMsg)
	}
	if !reflect.DeepEqual(want.cov, got.cov) {
		t.Fatalf("workers=%d coverage totals diverge:\n%v\nvs\n%v", workers, got.cov, want.cov)
	}
}

// TestRunDeterministicAcrossWorkers is the acceptance test for the parallel
// pool: with a fixed seed, Run produces an identical Result — pass/fail,
// failing case index, minimized sequence, violation wording, and coverage
// totals — at worker counts 1, 2, and 8.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	// A failing run: seeded bug #3 falls to the crash/reboot harness a few
	// dozen cases in, so lower-index clean cases, the failing case, and
	// cancelled higher-index cases all occur.
	cfg := DetectionConfig(faults.Bug3ShutdownMetadataSkip, 1234)
	cfg.Cases = 120
	want := snapshotRun(t, cfg, 1)
	if want.failCase < 0 {
		t.Fatal("setup: bug #3 not detected within the budget")
	}
	if want.failCase == 0 {
		t.Fatal("setup: failure at case 0 exercises no reordering")
	}
	for _, workers := range []int{2, 8} {
		assertSameSnapshot(t, want, snapshotRun(t, cfg, workers), workers)
	}
}

func TestRunDeterministicAcrossWorkersClean(t *testing.T) {
	cfg := Config{
		Seed: 13, Cases: 48, OpsPerCase: 30, Bias: DefaultBias(),
		EnableCrashes: true, EnableReboots: true, EnableFailures: true,
	}
	want := snapshotRun(t, cfg, 1)
	if want.failCase >= 0 {
		t.Fatalf("setup: clean run failed: %s", want.errMsg)
	}
	if len(want.cov) == 0 {
		t.Fatal("setup: no coverage recorded")
	}
	for _, workers := range []int{2, 8} {
		assertSameSnapshot(t, want, snapshotRun(t, cfg, workers), workers)
	}
}

// TestIndexConformanceDeterministicAcrossWorkers mirrors the store-harness
// determinism test for the Fig 3 index harness.
func TestIndexConformanceDeterministicAcrossWorkers(t *testing.T) {
	base := IndexConfig{Seed: 11, Cases: 40, OpsPerCase: 25, Bias: DefaultBias()}
	type snap struct {
		cases int
		ops   int64
		fail  bool
		cov   map[string]uint64
	}
	run := func(workers int) snap {
		cfg := base
		cfg.Workers = workers
		res := RunIndexConformance(cfg)
		return snap{cases: res.Cases, ops: res.Ops, fail: res.Failure != nil, cov: res.Probes}
	}
	want := run(1)
	if want.fail {
		t.Fatal("setup: clean index run failed")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d index result diverges:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

// TestRunPoolLowestIndexWins drives the pool directly: even when a
// higher-index failure lands first (forced with sleeps), the pool must
// report the lowest-index failure and return exactly the outcomes a
// sequential loop would have produced.
func TestRunPoolLowestIndexWins(t *testing.T) {
	errBoom := errors.New("boom")
	exec := func(ctx context.Context, i int) caseOutcome {
		switch i {
		case 3:
			time.Sleep(30 * time.Millisecond) // the real (lowest) failure lands late
			return caseOutcome{ops: 1, err: errBoom}
		case 7:
			return caseOutcome{ops: 1, err: errBoom} // decoy failure lands first
		default:
			time.Sleep(time.Millisecond)
			return caseOutcome{ops: 1}
		}
	}
	for _, workers := range []int{2, 4, 16} {
		out := runPool(workers, 64, exec)
		if len(out) != 4 {
			t.Fatalf("workers=%d: %d outcomes, want 4 (cut at first failure)", workers, len(out))
		}
		if out[3].err == nil {
			t.Fatalf("workers=%d: failing case lost its error", workers)
		}
		for i := 0; i < 3; i++ {
			if out[i].err != nil {
				t.Fatalf("workers=%d: clean case %d has error %v", workers, i, out[i].err)
			}
		}
	}
}

// TestRunPoolCancelsInflight checks early exit: once case 0 fails, long
// higher-index cases must be cancelled through their context rather than run
// to completion.
func TestRunPoolCancelsInflight(t *testing.T) {
	errBoom := errors.New("boom")
	var cancelled atomic.Int32
	exec := func(ctx context.Context, i int) caseOutcome {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
			return caseOutcome{err: errBoom}
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return caseOutcome{err: fmt.Errorf("%w: %w", errCaseCancelled, ctx.Err())}
		case <-time.After(5 * time.Second):
			return caseOutcome{}
		}
	}
	start := time.Now() //shardlint:allow determinism wall-clock bound on pool early-exit latency, not a replayed path
	out := runPool(4, 16, exec)
	if elapsed := time.Since(start); elapsed > 2*time.Second { //shardlint:allow determinism wall-clock bound on pool early-exit latency, not a replayed path
		t.Fatalf("pool did not exit early: %v", elapsed)
	}
	if len(out) != 1 || out[0].err == nil {
		t.Fatalf("outcomes: %d, first err %v", len(out), out)
	}
	if cancelled.Load() == 0 {
		t.Fatal("no in-flight case observed cancellation")
	}
}

func TestRunSeqCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seq := []Op{{Kind: OpPut, Key: "k00", Value: []byte{1}}, {Kind: OpGet, Key: "k00"}}
	ops, _, err := RunSeqCtx(ctx, seq, Config{Seed: 1, Cases: 1})
	if !errors.Is(err, errCaseCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ops != 0 {
		t.Fatalf("cancelled before the first op but ran %d", ops)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 100
	hits := make([]atomic.Int32, n)
	ParallelFor(8, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d run %d times", i, got)
		}
	}
	ParallelFor(4, 0, func(int) { t.Error("fn called for n=0") })
}
