// Snapshot-consistent range scans over the tree: one ordered, newest-wins
// merge of memtable + flushing generation + every on-disk run, pinned against
// concurrent flush/compaction by the manifest generation. The scan snapshots
// the run list under t.mu, loads every run, then re-checks the generation:
// if a flush or compaction published a new generation mid-load, the view may
// straddle the swap (some runs read pre-swap, some post-swap), so the scan
// discards it and re-snapshots. Loaded entry slices are immutable once
// decoded, so sources whose generation re-check passes are a true snapshot.
// A page still merges the whole snapshot before it filters (mergeRuns below),
// so it costs the tree, not the range; Keys already walks the sources with
// mergeIter.
package lsm

import (
	"sort"

	"shardstore/internal/faults"
	"shardstore/internal/vsync"
)

// maxSnapshotAttempts bounds the optimistic snapshot loop before the scan
// falls back to serializing against the run-list mutators, and the reads a
// point Get retries after a generation moved under it.
const maxSnapshotAttempts = 4

// Scan returns the live entries in [start, end) in ascending key order,
// newest version of each key, tombstones elided. An empty end means
// unbounded; limit <= 0 means unbounded. more reports that entries beyond
// the limit remain in range — resume with start = lastKey + "\x00".
func (t *Tree) Scan(start, end string, limit int) ([]Entry, bool, error) {
	opStart := t.obs.Now()
	t.met.scans.Inc()
	out, more, err := t.scanRange(start, end, limit)
	if err != nil {
		return nil, false, err
	}
	// Run-cache and memtable slices must not escape to callers.
	for i := range out {
		out[i].Value = append([]byte(nil), out[i].Value...)
	}
	t.met.scanEntries.Add(uint64(len(out)))
	t.met.scanLat.Observe(t.obs.Now() - opStart)
	return out, more, nil
}

// Keys implements Index: the live keys of one snapshot, ascending. Values are
// neither merged nor copied.
func (t *Tree) Keys() ([]string, error) {
	srcs, err := t.scanSnapshot("", "")
	if err != nil {
		return nil, err
	}
	var keys []string
	for it := newMergeIter(srcs, ""); ; {
		e, ok := it.next()
		if !ok {
			return keys, nil
		}
		if !e.Tombstone {
			keys = append(keys, e.Key)
		}
	}
}

// scanRange collects the live entries of [start, end) up to limit from one
// snapshot. The returned values alias run-cache and memtable slices
// (immutable, but the tree's own).
func (t *Tree) scanRange(start, end string, limit int) ([]Entry, bool, error) {
	srcs, err := t.scanSnapshot(start, end)
	if err != nil {
		return nil, false, err
	}
	out := make([]Entry, 0)
	for _, e := range mergeRuns(srcs) {
		if e.Key < start || e.Tombstone {
			continue
		}
		if end != "" && e.Key >= end {
			break
		}
		if limit > 0 && len(out) >= limit {
			return out, true, nil
		}
		out = append(out, e)
	}
	return out, false, nil
}

// mergeRuns materialises the newest-wins union of srcs (newest first),
// tombstones kept, sorted by key. It is the merge Scan had before mergeIter
// and is kept for Scan alone: draining newMergeIter(srcs, start) up to
// end/limit in scanRange replaces it and makes a page cost runs * log n +
// limit. That switch is held back because the repository's benchmark gate
// cannot admit its effect on scan_mixed in one step (CHANGES.md, PR 13).
func mergeRuns(srcs [][]Entry) []Entry {
	latest := make(map[string]Entry)
	order := make([]string, 0)
	for _, src := range srcs { // newest first: first writer wins
		for _, e := range src {
			if _, seen := latest[e.Key]; !seen {
				latest[e.Key] = e
				order = append(order, e.Key)
			}
		}
	}
	sort.Strings(order)
	out := make([]Entry, 0, len(order))
	for _, k := range order {
		out = append(out, latest[k])
	}
	return out
}

// scanSnapshot returns the sources of one consistent view, newest first.
func (t *Tree) scanSnapshot(start, end string) ([][]Entry, error) {
	for attempt := 0; attempt < maxSnapshotAttempts; attempt++ {
		srcs, gen, torn, err := t.scanSources(start, end)
		if err != nil {
			// A run vanished mid-load (compaction swapped it out and
			// reclamation got there first): the generation moved, take a
			// fresh snapshot.
			t.obs.Hit("lsm.scan.load_retry")
			vsync.Yield()
			continue
		}
		if !torn && t.ManifestGen() != gen {
			// Torn snapshot: a flush/compaction published a new generation
			// while runs were loading. Discard and retry.
			t.obs.Hit("lsm.scan.gen_retry")
			vsync.Yield()
			continue
		}
		return srcs, nil
	}
	// The optimistic loop kept losing to concurrent run-list churn: take the
	// mutator locks (flushMu before compactMu, the tree's lock order) so the
	// run list holds still for one authoritative pass.
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.obs.Hit("lsm.scan.stable_fallback")
	srcs, _, _, err := t.scanSources(start, end)
	return srcs, err
}

// scanSources snapshots the tree and loads its merge sources, newest first:
// memtable, flushing generation (both cut to [start, end)), then every run.
// It returns the manifest generation the snapshot was taken under; the caller
// decides whether a generation drift voids the view. torn reports that the
// seeded FaultScanTornLevelSwap composed the view from mixed generations, in
// which case the generation re-check must be skipped — that skip is exactly
// the seeded defect.
func (t *Tree) scanSources(start, end string) ([][]Entry, uint64, bool, error) {
	t.mu.Lock()
	gen := t.manifestGen
	runs := append([]runRef(nil), t.runs...)
	mem := memSource(t.mem, start, end)
	flushing := memSource(t.flushing, start, end)
	torn := t.bugs.Enabled(faults.FaultScanTornLevelSwap) && t.staleRuns != nil
	if torn {
		// Seeded fault: the deep levels come from the pre-swap run list while
		// L0 comes from the current one — the mid-swap level set a correct
		// iterator must never observe. Keys whose newest version crossed the
		// swap boundary vanish or resurrect relative to point gets.
		composed := make([]runRef, 0, len(runs)+len(t.staleRuns))
		for _, r := range runs {
			if r.level == 0 {
				composed = append(composed, r)
			}
		}
		for _, r := range t.staleRuns {
			if r.level >= 1 {
				composed = append(composed, r)
			}
		}
		runs = composed
		t.obs.Hit("lsm.scan.torn_view")
	}
	t.mu.Unlock()

	srcs := make([][]Entry, 0, len(runs)+2)
	srcs = append(srcs, mem, flushing)
	for _, r := range runs {
		entries, err := t.loadRun(r)
		if err != nil {
			if torn {
				// A stale pre-swap run may already be reclaimed; the defect
				// path drops it silently (part of the torn observation).
				continue
			}
			return nil, gen, false, err
		}
		srcs = append(srcs, entries)
	}
	return srcs, gen, torn, nil
}

// memSource returns the entries of one memtable generation that fall in
// [start, end), sorted by key; values alias the memtable's.
func memSource(m map[string]memEntry, start, end string) []Entry {
	var out []Entry
	for k, e := range m {
		if k >= start && (end == "" || k < end) {
			out = append(out, Entry{Key: k, Value: e.value, Tombstone: e.tombstone})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
