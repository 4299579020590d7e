package shardstore_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// gateStore is a roomy disk so the gate never stalls on reclamation. The
// store runs with request-span tracing attached, so the gate also proves
// that tracing stays live across every durable put.
func gateStore(t *testing.T) *store.Store {
	t.Helper()
	cfg := store.Config{Seed: 1}
	cfg.Disk = disk.Config{PageSize: 128, PagesPerExtent: 512, ExtentCount: 64}
	cfg.MaxMemEntries = 512
	cfg.AutoFlushThreshold = 256
	cfg.Obs = obs.New(obs.NewWallClock()).WithSpans(64, uint64(time.Millisecond))
	st, _, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGroupCommitThroughputGate asks what group commit buys 8 concurrent
// writers, and answers in device syncs per durable put — the node's own
// counts, not a stopwatch. The same 320 puts run twice: under the lock-step
// discipline (every put followed by its own scheduler pump, write path
// serialized across the flush), and through WaitDurableTraced, where
// concurrent writers share the leader's flush.
//
// A flush that takes time is what lets followers pile up behind a leader.
// The gate models it without a timer: TestHookPreSync holds each flush of
// the second phase until every writer that still has puts to do is waiting
// on one. Held that way, 30 runs on a 2-vCPU box gave 961-962 syncs
// lock-step (3.0 per put) against 226-242 (0.71-0.76 per put), 4.0-4.3x
// fewer, mean group size 6.7-7.2. The floor asserted is one half, well
// under that: when the hook's patience runs out on a loaded box the flush
// goes with whoever has arrived and the count drifts toward lock-step.
// (Counting writers merely inside the call is not enough: one whose put
// was just satisfied returns, puts and leads again before its woken
// followers have run, and every put pays its own three syncs — 923 here.)
func TestGroupCommitThroughputGate(t *testing.T) {
	const (
		writers  = 8
		putsEach = 40
		puts     = writers * putsEach
	)
	val := make([]byte, 64)
	key := func(w, i int) string { return fmt.Sprintf("w%d-k%02d", w, i%4) }

	// Lock-step: one put, one pump, one writer at a time.
	base := gateStore(t)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < putsEach; i++ {
				mu.Lock()
				_, err := base.Put(key(w, i), val)
				if err == nil {
					err = base.Pump()
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("writer failed")
	}
	baseSyncs := base.Disk().Stats().Syncs

	// Group commit. pending[w] is the dep writer w is inside
	// WaitDurableTraced for. A flush is held until every writer with puts
	// left has one that is not yet persistent — or until patience runs out:
	// a follower that enrolled just after the sync that satisfied it sleeps
	// until the next one, and only letting the flush go wakes it.
	var pending [writers]atomic.Pointer[dep.Dependency]
	var done [writers]atomic.Bool
	ready := func() bool {
		for w := range pending {
			if d := pending[w].Load(); !done[w].Load() && (d == nil || d.IsPersistent()) {
				return false
			}
		}
		return true
	}
	disk.TestHookPreSync = func() {
		for patience := 1 << 14; patience > 0 && !ready(); patience-- {
			runtime.Gosched()
		}
	}
	defer func() { disk.TestHookPreSync = nil }()

	gc := gateStore(t)
	tracer := gc.Obs().Tracer()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done[w].Store(true)
			for i := 0; i < putsEach; i++ {
				sp := tracer.Start(0, "put", key(w, i))
				d, err := gc.Put(key(w, i), val)
				if err != nil {
					t.Error(err)
					return
				}
				pending[w].Store(d)
				err = gc.WaitDurableTraced(d, sp)
				if err != nil {
					t.Error(err)
					return
				}
				sp.Finish()
				if !d.IsPersistent() {
					t.Error("WaitDurable returned before persistence")
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("writer failed")
	}
	gcSyncs := gc.Disk().Stats().Syncs

	snap := gc.Obs().Snapshot()
	gs := snap.Histograms["sched.group_size"]
	mean := gs.Mean()
	t.Logf("%d puts: lock-step %d syncs (%.2f/put); group commit %d syncs (%.2f/put), %.1fx fewer; group size max=%d mean=%.1f",
		puts, baseSyncs, float64(baseSyncs)/puts, gcSyncs, float64(gcSyncs)/puts,
		float64(baseSyncs)/float64(gcSyncs), gs.Max, mean)

	if spans := snap.Counters["trace.spans"]; spans != puts {
		t.Fatalf("tracing was not live for the whole gate: %d spans, want %d", spans, puts)
	}
	if 2*gcSyncs > baseSyncs {
		t.Fatalf("group commit used %d syncs, more than half the lock-step %d", gcSyncs, baseSyncs)
	}
	if gs.Max != writers || mean < 4 {
		t.Fatalf("commit groups too small: max=%d (want %d) mean=%.1f (want >= 4)", gs.Max, writers, mean)
	}
}
