package store

import (
	"bytes"
	"fmt"
	"testing"

	"shardstore/internal/compact"
	"shardstore/internal/obs"
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
