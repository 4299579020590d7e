package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// This file is the parallel execution engine behind the conformance
// harnesses. The paper's validation stack earns its keep by volume —
// ShardStore's property-based checks run millions of executions nightly on a
// CI fleet (§4.1, §7) — and every test case already builds its own
// in-memory disk and store, so case-level parallelism is embarrassingly
// safe. The engine fans case indices out across a pool of workers while
// keeping the observable result bit-identical to a sequential run:
//
//   - each case's RNG is derived from the root seed and the case index
//     (prop.CaseSeed), never from scheduling order;
//   - the reported failure is always the lowest-index failing case, exactly
//     as the sequential loop would have found it, minimized identically;
//   - per-case coverage probes land in a private Obs and only the cases a
//     sequential run would have executed (0..first failure) are merged, so
//     probe totals match at any worker count;
//   - cases above a discovered failure are cancelled via context for early
//     exit, and their partial results are discarded.
//
// Shuttle-based model checking installs a process-global scheduler
// (vsync.SetRuntime) and therefore must stay sequential; the pool pins
// passthrough mode for its lifetime so a concurrent exploration fails
// loudly instead of corrupting both runs.

// caseOutcome is the result of one independently-executed case.
type caseOutcome struct {
	ops     int
	crashes int
	// probes holds the case's coverage-probe hits (merged by the caller in
	// index order).
	probes obs.Probes
	err    error
}

// errCaseCancelled marks a case abandoned because a lower-index case already
// failed; its partial outcome is discarded.
var errCaseCancelled = errors.New("core: case cancelled after earlier failure")

// poolWorkers resolves a worker-count knob: 0 (or negative) means one worker
// per available CPU.
func poolWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runPool executes exec(ctx, i) for i in [0, cases) on a pool of workers and
// returns the per-case outcomes a sequential loop would have produced: all
// cases up to and including the first failing index (or all cases if none
// fail). Indices are claimed in increasing order, so by the time a failure
// at index f is recorded every index below f is already running or done;
// in-flight cases above f have their contexts cancelled and freshly claimed
// indices above f are skipped.
func runPool(workers, cases int, exec func(ctx context.Context, i int) caseOutcome) []caseOutcome {
	workers = poolWorkers(workers)
	if workers > cases {
		workers = cases
	}
	release := vsync.PinPassthrough()
	defer release()

	outcomes := make([]caseOutcome, cases)
	var next atomic.Int64
	var minFail atomic.Int64
	minFail.Store(int64(cases)) // sentinel: no failure seen

	var mu sync.Mutex
	inflight := make(map[int]context.CancelFunc, workers)

	// recordFailure lowers the failure watermark to idx and cancels every
	// in-flight case above the new watermark.
	recordFailure := func(idx int) {
		for {
			cur := minFail.Load()
			if int64(idx) >= cur {
				return
			}
			if minFail.CompareAndSwap(cur, int64(idx)) {
				break
			}
		}
		mu.Lock()
		for i, cancel := range inflight {
			if i > idx {
				cancel()
			}
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cases || int64(i) > minFail.Load() {
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				mu.Lock()
				inflight[i] = cancel
				mu.Unlock()
				out := exec(ctx, i)
				mu.Lock()
				delete(inflight, i)
				mu.Unlock()
				cancel()
				outcomes[i] = out
				if out.err != nil && !errors.Is(out.err, errCaseCancelled) && !errors.Is(out.err, context.Canceled) {
					recordFailure(i)
				}
			}
		}()
	}
	wg.Wait()

	if f := int(minFail.Load()); f < cases {
		return outcomes[:f+1]
	}
	return outcomes
}

// ParallelFor runs fn(0..n-1) on a pool of workers (0 = GOMAXPROCS) and
// waits for all of them. It is the grid runner for experiment cells and
// other independent units that don't report failures through the harness
// Result path: fn must confine its writes to its own slot of any shared
// slice. Like the conformance pool it pins vsync passthrough mode, so
// shuttle explorations cannot start mid-grid.
func ParallelFor(workers, n int, fn func(i int)) {
	workers = poolWorkers(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return
	}
	release := vsync.PinPassthrough()
	defer release()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
