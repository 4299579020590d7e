package store

import (
	"time"

	"shardstore/internal/compact"
	"shardstore/internal/dep"
)

// --- compaction host: the storage-node surface the leveled-compaction
// engine works against (see internal/compact). The tree owns the whole
// pinned-write + manifest-CAS discipline; the store contributes only the
// group-commit barrier, so a compaction's manifest swap becomes durable the
// same way every foreground put does. ---

type compactHost struct{ s *Store }

func (h compactHost) Levels() []compact.RunInfo { return h.s.idx.LevelInfo() }

func (h compactHost) Compact(p compact.Plan) (compact.Result, error) {
	return h.s.idx.ApplyPlan(p)
}

func (h compactHost) WaitDurable(d *dep.Dependency) error { return h.s.WaitDurable(d) }

var _ compact.Host = compactHost{}

// Compactor returns the node's leveled-compaction engine.
func (s *Store) Compactor() *compact.Engine { return s.compactor }

// CompactStep applies at most one leveled compaction, without waiting on the
// commit barrier: the manifest record's dependency on the output chunk alone
// protects a crash, exactly like an index flush. Deterministic harnesses use
// this as their compaction op so their own scheduling controls when the swap
// reaches the media; it reports whether a compaction was applied.
func (s *Store) CompactStep() (bool, error) {
	if err := s.requireInService(); err != nil {
		return false, err
	}
	did, err := s.compactor.StepNoWait()
	if err == nil && did {
		s.obs.Hit("store.compact_step")
	}
	return did, err
}

// CompactQuiesce runs durable compaction steps until the level shape is
// within policy (or maxSteps is reached), returning the number applied.
func (s *Store) CompactQuiesce(maxSteps int) (int, error) {
	if err := s.requireInService(); err != nil {
		return 0, err
	}
	return s.compactor.Quiesce(maxSteps)
}

// StartCompact launches the background compaction loop, one durable engine
// step per tick. It is idempotent while a loop is running. Like StartScrub,
// the loop is a plain goroutine: deterministic harnesses never start it —
// they call CompactStep explicitly, the way they schedule every other
// background task.
func (s *Store) StartCompact(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compactStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.compactStop, s.compactDone = stop, done
	//shardlint:allow syncusage wall-clock maintenance loop; shuttle-driven harnesses never start it and call CompactStep directly
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if s.requireInService() != nil {
					continue
				}
				_, _ = s.compactor.Step()
			}
		}
	}()
	s.obs.Hit("store.compact_loop_start")
}

// StopCompact stops the background compaction loop and waits for it to exit;
// no merge IO is in flight afterwards. Safe to call when no loop is running.
// CleanShutdown and Crash stop this loop before the scrub loop and before any
// teardown flush, so shutdown never races an in-progress manifest swap.
func (s *Store) StopCompact() {
	s.mu.Lock()
	stop, done := s.compactStop, s.compactDone
	s.compactStop, s.compactDone = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
