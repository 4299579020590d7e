package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"shardstore/internal/disk"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// TestMaintenanceLoopStartStopIdempotent: the background loop starts once, a
// second Start is a no-op, and Stop (twice) terminates and is safe when no
// loop runs.
func TestMaintenanceLoopStartStopIdempotent(t *testing.T) {
	cfg := compactTestConfig(41)
	cfg.Obs = obs.New(nil).WithProbes()
	s, _ := mustOpen(t, cfg)
	s.Start(0) // disabled: no loop
	s.Stop()   // safe with no loop
	s.Start(time.Millisecond)
	s.Start(time.Millisecond) // idempotent while running
	s.Stop()
	s.Stop() // safe after stop
	if hits := cfg.Obs.Snapshot().Probes["store.maintain_loop_start"]; hits != 1 {
		t.Fatalf("loop started %d times, want 1", hits)
	}
}

// TestCrashDuringCompactionLoop: a crash while the maintenance loop is live
// must stop the loop before tearing down, and recovery must serve every key
// that was durable before the crash — whatever compaction state the loop
// reached.
func TestCrashDuringCompactionLoop(t *testing.T) {
	cfg := compactTestConfig(42)
	s, d := mustOpen(t, cfg)
	seedCompactionWork(t, s, 6)

	s.Start(time.Millisecond)
	// Give the ticker a chance to run real steps; the crash below must be
	// correct whether or not any fired.
	for i := 0; i < 200; i++ {
		if cfg.Obs.Snapshot().Counters["compact.steps"] > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	s.Crash(rand.New(rand.NewSource(42)))
	// Crash must have stopped the loop: another stop is a no-op.
	s.Stop()

	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatalf("recovery after crash during compaction loop: %v", err)
	}
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("c%02d", i)
		got, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 60)) {
			t.Fatalf("%s lost across crash during compaction loop: %v", k, err)
		}
	}
}

// TestCleanShutdownStopsCompactionLoop: CleanShutdown with a live loop
// terminates it first and the final flush lands; reopening serves all keys.
func TestCleanShutdownStopsCompactionLoop(t *testing.T) {
	cfg := compactTestConfig(43)
	s, d := mustOpen(t, cfg)
	seedCompactionWork(t, s, 4)
	s.Start(time.Millisecond)
	if _, err := s.Put("late", []byte("unflushed at shutdown")); err != nil {
		t.Fatal(err)
	}
	if err := s.CleanShutdown(); err != nil {
		t.Fatalf("clean shutdown with live maintenance loop: %v", err)
	}
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get("late"); err != nil || !bytes.Equal(got, []byte("unflushed at shutdown")) {
		t.Fatalf("late write lost in clean shutdown: %v", err)
	}
}

// TestMaintenanceLoopsStopWhileTicking: Stop returns even when the loop is
// mid-tick. Both halves of a tick — Maintain, whose last step compacts, and
// the scrub step — take the store lock, so a Stop that waited for the loop
// while still holding that lock would deadlock. Each case gives one half the
// work: "compact" seeds L0 runs so the engine has a plan ready, "scrub"
// seeds replicated shards so every scrub step verifies frames. Fifty
// start/stop cycles with ticks pending make the hang near-certain if it can
// happen at all, and the watchdog turns it into a failure.
func TestMaintenanceLoopsStopWhileTicking(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(*testing.T) *Store
	}{
		{"compact", func(t *testing.T) *Store {
			s, _ := mustOpen(t, compactTestConfig(44))
			seedCompactionWork(t, s, 4)
			return s
		}},
		{"scrub", func(t *testing.T) *Store {
			cfg := testConfig(44)
			cfg.Replicas = 2
			s, _ := mustOpen(t, cfg)
			for i := 0; i < 32; i++ {
				if _, err := s.Put(fmt.Sprintf("s%02d", i), bytes.Repeat([]byte{byte(i + 1)}, 60)); err != nil {
					t.Fatalf("seed put: %v", err)
				}
			}
			if err := s.Pump(); err != nil {
				t.Fatalf("seed pump: %v", err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			done := make(chan struct{})
			vsync.Go("cycler", func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					s.Start(50 * time.Microsecond)
					time.Sleep(200 * time.Microsecond)
					s.Stop()
				}
			})
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s: Stop did not return", tc.name)
			}
		})
	}
}

// TestMaintenanceLoopCompacts: under a write load the loop itself takes
// leveled-compaction steps. compact.steps counts only engine steps, and
// nothing but the loop takes one here.
func TestMaintenanceLoopCompacts(t *testing.T) {
	cfg := compactTestConfig(45)
	s, _ := mustOpen(t, cfg)
	s.Start(time.Millisecond)
	defer s.Stop()
	timeout := time.After(5 * time.Second)
	for i := 0; cfg.Obs.Snapshot().Counters["compact.steps"] == 0; i++ {
		select {
		case <-timeout:
			t.Fatalf("no compaction step in 5 s of loop ticks under %d writes", i)
		default:
		}
		if _, err := s.Put(fmt.Sprintf("w%02d", i%32), bytes.Repeat([]byte{byte(i)}, 60)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRemovedStoreMaintainIsInert replays a service cycle followed by ticks
// on the removed store object — what a ticker holding the store it was
// started with does after return_disk swaps in the returned store. Before
// Maintain checked service, those ticks reclaimed extents the returned store
// had written (this sequence: 20 of 20 ticks reclaimed; 6 of 12 shards
// failed through the returned store and 12 of 12 after a reopen). Now every
// tick is refused and touches nothing.
func TestRemovedStoreMaintainIsInert(t *testing.T) {
	cfg := testConfig(31)
	old, d := mustOpen(t, cfg)
	key := func(i int) string { return fmt.Sprintf("shard-%02d", i) }
	val := func(gen, i int) []byte { return bytes.Repeat([]byte{byte(gen*16 + i + 1)}, 147) }
	// Three generations of 12 shards leave two thirds of the chunks garbage.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 12; i++ {
			if _, err := old.Put(key(i), val(gen, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := old.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.RemoveFromService(); err != nil {
		t.Fatal(err)
	}
	ns, err := old.ReturnToService()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := ns.Put(key(i), val(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Pump(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	for r := 0; r < 20; r++ {
		if err := old.Maintain(); !errors.Is(err, ErrOutOfService) {
			t.Fatalf("tick %d on the removed store: %v, want ErrOutOfService", r, err)
		}
	}
	if after := d.Stats(); after != before {
		t.Fatalf("ticks on the removed store touched the disk: %+v -> %+v", before, after)
	}
	ns.DrainCache()
	check := func(s *Store, when string) {
		t.Helper()
		for i := 0; i < 12; i++ {
			if got, err := s.Get(key(i)); err != nil || !bytes.Equal(got, val(3, i)) {
				t.Fatalf("%s %s: %d bytes, %v", when, key(i), len(got), err)
			}
		}
	}
	check(ns, "through the returned store:")
	if err := ns.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(d, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	check(re, "after reopen:")
}

// TestReturnToServiceRestartsLoop: a returned store runs its own loop. Its
// put becomes persistent with no explicit flush or durability wait, and the
// removed store's loop stopped at removal, so only the new loop can have
// issued and synced the writes.
func TestReturnToServiceRestartsLoop(t *testing.T) {
	s, _ := mustOpen(t, testConfig(32))
	s.Start(time.Millisecond)
	if err := s.RemoveFromService(); err != nil {
		t.Fatal(err)
	}
	ns, err := s.ReturnToService()
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Stop()
	d, err := ns.Put("after-return", []byte("ticked durable"))
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.After(5 * time.Second)
	for !d.IsPersistent() {
		select {
		case <-timeout:
			t.Fatal("put on the returned store not persistent after 5 s: its loop is not running")
		default:
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaintainJoinsStepErrors: a failing step does not stop the later ones;
// each failure counts once in store.maintain_errors and is joined into the
// result.
func TestMaintainJoinsStepErrors(t *testing.T) {
	s, d := mustOpen(t, testConfig(33))
	for i := 0; i < 8; i++ {
		if _, err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close() // reclamation's scan read and the sync both fail
	err := s.Maintain()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok || !errors.Is(err, disk.ErrClosedDisk) {
		t.Fatalf("Maintain on a closed disk: %v, want joined disk errors", err)
	}
	parts := joined.Unwrap()
	if len(parts) != 2 || !strings.Contains(parts[0].Error(), "reclamation") {
		t.Fatalf("want the reclaim failure then the sync failure, got %q", parts)
	}
	if n := s.Obs().Snapshot().Counters["store.maintain_errors"]; n != 2 {
		t.Fatalf("store.maintain_errors = %d, want 2", n)
	}
}
