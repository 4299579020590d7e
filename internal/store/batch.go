package store

import "shardstore/internal/vsync"

// Batch entry points for the v2 RPC multi-op frames. Unlike BulkCreate/
// BulkRemove (control-plane, fail-fast, one combined dependency), these run
// every item and report per-item outcomes, and the mutating forms share a
// single scheduler round at the end: each item only stages its writebacks,
// and one Step issues everything currently issuable for the whole batch —
// amortizing the IO kick across items instead of paying it per op.

// PutBatch stores values[i] under ids[i] and returns one error slot per
// item (nil on success). The slices must be the same length; extra values
// are ignored and missing ones surface as per-item errors downstream, so
// callers should validate lengths first (the RPC server does).
func (s *Store) PutBatch(ids []string, values [][]byte) []error {
	errs := make([]error, len(ids))
	for i, id := range ids {
		if i >= len(values) {
			errs[i] = ErrNotFound // defensive: length-checked by callers
			continue
		}
		_, errs[i] = s.Put(id, values[i])
		vsync.Yield()
	}
	s.sched.Step() // one shared IO kick for the whole batch
	s.obs.Hit("store.put_batch")
	return errs
}

// GetBatch reads every id, returning parallel value and error slices.
func (s *Store) GetBatch(ids []string) ([][]byte, []error) {
	vals := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		vals[i], errs[i] = s.Get(id)
		vsync.Yield()
	}
	s.obs.Hit("store.get_batch")
	return vals, errs
}

// DeleteBatch removes every id with per-item outcomes, sharing one
// scheduler round like PutBatch.
func (s *Store) DeleteBatch(ids []string) []error {
	errs := make([]error, len(ids))
	for i, id := range ids {
		_, errs[i] = s.Delete(id)
		vsync.Yield()
	}
	s.sched.Step()
	s.obs.Hit("store.delete_batch")
	return errs
}
