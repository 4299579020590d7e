package store

import (
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
