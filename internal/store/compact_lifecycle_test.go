package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shardstore/internal/compact"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

func compactTestConfig(seed int64) Config {
	cfg := testConfig(seed)
	cfg.MaxRuns = 16
	cfg.Compact = compact.Policy{L0Trigger: 2, BaseBytes: 256, Growth: 2, MaxLevels: 4}
	cfg.Obs = obs.New(nil)
	return cfg
}

// seedCompactionWork flushes several L0 runs so the engine has a plan ready.
func seedCompactionWork(t *testing.T, s *Store, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		if _, err := s.Put(fmt.Sprintf("c%02d", i), bytes.Repeat([]byte{byte(i + 1)}, 60)); err != nil {
			t.Fatalf("seed put: %v", err)
		}
		if _, err := s.FlushIndex(); err != nil {
			t.Fatalf("seed flush: %v", err)
		}
	}
	if err := s.Pump(); err != nil {
		t.Fatalf("seed pump: %v", err)
	}
}

func TestCompactStepAppliesUnderPressure(t *testing.T) {
	cfg := compactTestConfig(40)
	s, d := mustOpen(t, cfg)
	seedCompactionWork(t, s, 4)
	did, err := s.CompactStep()
	if err != nil || !did {
		t.Fatalf("compact step: did=%v err=%v", did, err)
	}
	if n, err := s.CompactQuiesce(16); err != nil {
		t.Fatalf("quiesce: applied=%d err=%v", n, err)
	}
	if err := s.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("c%02d", i)
		got, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 60)) {
			t.Fatalf("%s after compaction + reboot: %v", k, err)
		}
	}
}

// TestCompactLoopStartStopIdempotent: the background loop starts once, a
// second Start is a no-op, and Stop (twice) terminates and is safe when no
// loop runs.
func TestCompactLoopStartStopIdempotent(t *testing.T) {
	cfg := compactTestConfig(41)
	cfg.Obs = obs.New(nil).WithProbes()
	s, _ := mustOpen(t, cfg)
	s.StartCompact(0) // disabled: no loop
	s.StopCompact()   // safe with no loop
	s.StartCompact(time.Millisecond)
	s.StartCompact(time.Millisecond) // idempotent while running
	s.StopCompact()
	s.StopCompact() // safe after stop
	if hits := cfg.Obs.Snapshot().Probes["store.compact_loop_start"]; hits != 1 {
		t.Fatalf("loop started %d times, want 1", hits)
	}
}

// TestCrashDuringCompactionLoop: a crash while the background compaction
// loop is live must stop the loop before tearing down (StopCompact runs
// ahead of StopScrub and the teardown flush), and recovery must serve every
// key that was durable before the crash — whatever compaction state the
// loop reached.
func TestCrashDuringCompactionLoop(t *testing.T) {
	cfg := compactTestConfig(42)
	s, d := mustOpen(t, cfg)
	seedCompactionWork(t, s, 6)

	s.StartCompact(time.Millisecond)
	// Give the ticker a chance to run real steps; the crash below must be
	// correct whether or not any fired.
	for i := 0; i < 200; i++ {
		if cfg.Obs.Snapshot().Counters["compact.steps"] > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	s.Crash(rand.New(rand.NewSource(42)))
	// Crash must have stopped the loop: another stop is a no-op, and a
	// restart after crash is rejected by the loop body (out of service).
	s.StopCompact()

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
	s.StartCompact(time.Millisecond)
	if _, err := s.Put("late", []byte("unflushed at shutdown")); err != nil {
		t.Fatal(err)
	}
	if err := s.CleanShutdown(); err != nil {
		t.Fatalf("clean shutdown with live compaction loop: %v", err)
	}
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get("late"); err != nil || !bytes.Equal(got, []byte("unflushed at shutdown")) {
		t.Fatalf("late write lost in clean shutdown: %v", err)
	}
}

// TestMaintenanceLoopsStopWhileTicking: StopCompact and StopScrub return
// even when their loop is mid-tick. A tick takes the store lock, so a Stop
// that waited for the loop while still holding that lock would deadlock;
// fifty start/stop cycles with ticks pending make the hang near-certain if
// it can happen at all, and the watchdog turns it into a failure.
func TestMaintenanceLoopsStopWhileTicking(t *testing.T) {
	for _, loop := range []struct {
		name  string
		start func(*Store, time.Duration)
		stop  func(*Store)
	}{
		{"compact", (*Store).StartCompact, (*Store).StopCompact},
		{"scrub", (*Store).StartScrub, (*Store).StopScrub},
	} {
		t.Run(loop.name, func(t *testing.T) {
			s, _ := mustOpen(t, compactTestConfig(44))
			seedCompactionWork(t, s, 4)
			done := make(chan struct{})
			vsync.Go("cycler", func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					loop.start(s, 50*time.Microsecond)
					time.Sleep(200 * time.Microsecond)
					loop.stop(s)
				}
			})
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s loop: Stop did not return", loop.name)
			}
		})
	}
}
