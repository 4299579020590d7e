// Leveled compaction application (the host side of internal/compact): the
// engine plans over LevelInfo and the tree applies plans — merge-write the
// output run as a new pinned chunk, then publish a new manifest generation
// whose run list swaps the inputs for the output in one CAS-guarded step.
// A crash anywhere before the manifest record reaches the media leaves the
// previous generation fully intact: the inputs are still named by the
// highest durable manifest, the output chunk is just unreferenced garbage.
package lsm

import (
	"fmt"

	"shardstore/internal/chunk"
	"shardstore/internal/compact"
	"shardstore/internal/dep"
	"shardstore/internal/faults"
	"shardstore/internal/vsync"
)

// LevelInfo implements compact.Host's view: the current manifest
// generation's runs in read order.
func (t *Tree) LevelInfo() []compact.RunInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]compact.RunInfo, 0, len(t.runs))
	for _, r := range t.runs {
		out = append(out, compact.RunInfo{Level: r.level, Seq: r.seq, Bytes: int(r.loc.Length)})
	}
	return out
}

// ApplyPlan merges the plan's input runs into a single run at p.OutLevel and
// publishes the swap as a new manifest generation. Applied=false (with no
// error) means the CAS lost: some input run is no longer part of the current
// generation, so nothing was published and the caller should re-plan.
func (t *Tree) ApplyPlan(p compact.Plan) (compact.Result, error) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	return t.applyPlanLocked(p)
}

// Compact implements Index, the control-plane CompactIndex operation: one
// plan over every current run, landing at the deepest occupied level (at
// least 1: the output is merged, not raw flush output).
func (t *Tree) Compact() error { return t.compactThrough(MaxLevels) }

// compactL0 pushes the entire L0 block (plus the resident L1 run, if any)
// into L1 — the flush path's bounded auto-compaction. Requires flushMu held
// by the caller; takes compactMu (that lock order, never the reverse).
func (t *Tree) compactL0() error { return t.compactThrough(1) }

// compactThrough merges every run at levels 0..maxLevel into the deepest of
// those levels that is occupied.
func (t *Tree) compactThrough(maxLevel int) error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.mu.Lock()
	p := compact.Plan{OutLevel: 1}
	for _, r := range t.runs {
		if r.level > maxLevel {
			continue
		}
		p.Inputs = append(p.Inputs, r.seq)
		if r.level > p.OutLevel {
			p.OutLevel = r.level
		}
	}
	t.mu.Unlock()
	if len(p.Inputs) == 0 {
		return nil
	}
	_, err := t.applyPlanLocked(p)
	return err
}

// applyPlanLocked requires t.compactMu held.
func (t *Tree) applyPlanLocked(p compact.Plan) (compact.Result, error) {
	start := t.obs.Now()
	if len(p.Inputs) == 0 || p.OutLevel < 1 || p.OutLevel > MaxLevels {
		return compact.Result{}, fmt.Errorf("lsm: invalid compaction plan (%d inputs, out L%d)", len(p.Inputs), p.OutLevel)
	}
	inSet := make(map[uint64]bool, len(p.Inputs))
	for _, s := range p.Inputs {
		inSet[s] = true
	}

	t.mu.Lock()
	snapshot := append([]runRef(nil), t.runs...)
	t.mu.Unlock()
	var inputs, rest []runRef
	for _, r := range snapshot {
		if inSet[r.seq] {
			inputs = append(inputs, r)
		} else {
			rest = append(rest, r)
		}
	}
	if len(inputs) != len(p.Inputs) {
		t.obs.Hit("lsm.compact.abort_missing_input")
		return compact.Result{}, nil
	}
	if err := validatePlanShape(inputs, rest, p.OutLevel); err != nil {
		return compact.Result{}, err
	}

	// Merge in snapshot order — read-precedence order, newest data first.
	loaded := make([][]Entry, 0, len(inputs))
	bytesIn := 0
	for _, r := range inputs {
		entries, err := t.loadRun(r)
		if err != nil {
			return compact.Result{}, err
		}
		loaded = append(loaded, entries)
		bytesIn += int(r.loc.Length)
	}
	// Tombstones may be elided only when no level deeper than the output
	// remains: a deeper run can still hold an older value the marker masks.
	dropTomb := true
	for _, r := range rest {
		if r.level > p.OutLevel {
			dropTomb = false
			break
		}
	}
	var merged []Entry
	dropped := 0
	for it := newMergeIter(loaded, ""); ; {
		e, ok := it.next()
		if !ok {
			break
		}
		if e.Tombstone && dropTomb {
			dropped++
			continue
		}
		merged = append(merged, e)
	}

	// Write the output chunk, pinned (the deferred release) until the new
	// manifest generation names it. A merge that cancels to nothing (all
	// inputs were tombstones over each other) publishes pure removal: no
	// output run at all.
	var (
		out     runRef
		cdep    *dep.Dependency
		release func()
		hasOut  = len(merged) > 0
		payload []byte
	)
	if hasOut {
		t.mu.Lock()
		out = runRef{seq: t.runSeq, level: p.OutLevel}
		t.runSeq++
		t.mu.Unlock()
		payload = encodeRun(merged)
		var err error
		out.loc, cdep, release, err = t.cs.Put(chunk.TagIndexRun, runKeyFor(out.seq), payload)
		if err != nil {
			return compact.Result{}, err
		}
		if t.bugs.Enabled(faults.Bug14CompactionReclaimRace) {
			// Seeded bug #14 (§6's worked example): compaction unpinned the
			// extent holding the new run chunk before updating the metadata to
			// point at it. A reclamation scheduled in that window finds the
			// chunk unreferenced, drops it, and resets the extent — and the
			// metadata update then installs a dangling pointer, losing the
			// index entries the run contained.
			release()
			t.obs.Hit("lsm.bug14.early_unpin")
			vsync.Yield()
		} else {
			defer release()
		}
	} else {
		t.obs.Hit("lsm.compact.empty_output")
	}

	t.mu.Lock()
	// The CAS: the swap publishes only if every input is still part of the
	// current generation. Concurrent flushes prepend new L0 runs and commute
	// with the swap; anything that removed an input (a control-plane full
	// compaction racing in) loses us the exchange and we publish nothing.
	cur := make(map[uint64]bool, len(t.runs))
	for _, r := range t.runs {
		cur[r.seq] = true
	}
	for _, s := range p.Inputs {
		if !cur[s] {
			t.mu.Unlock()
			t.obs.Hit("lsm.compact.cas_abort")
			return compact.Result{}, nil
		}
	}
	newRuns := make([]runRef, 0, len(t.runs))
	inserted := !hasOut
	for _, r := range t.runs {
		if inSet[r.seq] {
			continue
		}
		if !inserted && r.level > p.OutLevel {
			newRuns = append(newRuns, out)
			inserted = true
		}
		newRuns = append(newRuns, r)
	}
	if !inserted {
		newRuns = append(newRuns, out)
	}
	if t.bugs.Enabled(faults.FaultScanTornLevelSwap) {
		// Seeded fault state: remember the pre-swap run list so the scan
		// path can compose its torn mid-swap view (see scan.go).
		t.staleRuns = append([]runRef(nil), t.runs...)
	}
	t.runs = newRuns
	if hasOut {
		t.runCache[out.loc] = merged
	}
	t.pruneRunCacheLocked()
	t.updateRunMetricsLocked()
	var manifestWaits []*dep.Dependency
	if hasOut {
		if t.bugs.Enabled(faults.FaultCompactStaleManifest) {
			// Seeded fault: publish the manifest generation without ordering
			// it after the output chunk. Both writes sit in the device cache
			// as peers, so a crash can tear them apart — the manifest page
			// survives, the output chunk's pages do not — and recovery then
			// serves a generation whose run chunk never reached the media.
			t.obs.Hit("lsm.compact.stale_manifest")
		} else {
			manifestWaits = append(manifestWaits, cdep)
		}
	}
	mdep, werr := t.stageManifestLocked(manifestWaits...)
	t.mu.Unlock()
	if werr != nil {
		return compact.Result{}, werr
	}

	manifest := mdep
	if cdep != nil {
		manifest = cdep.And(mdep)
	}
	t.obs.Hit("lsm.compact.leveled")
	t.met.compactions.Inc()
	t.met.compactDur.Observe(t.obs.Now() - start)
	return compact.Result{
		Applied:           true,
		BytesIn:           bytesIn,
		BytesOut:          len(payload),
		DroppedTombstones: dropped,
		Manifest:          manifest,
	}, nil
}

// validatePlanShape rejects plans that would reorder read precedence: the
// output run adopts OutLevel's position, so every non-input run must keep
// the same newer/older relation to the merged data it had before the swap.
func validatePlanShape(inputs, rest []runRef, outLevel int) error {
	minInLevel := MaxLevels + 1
	maxL0Seq := uint64(0)
	hasL0 := false
	for _, r := range inputs {
		if r.level > outLevel {
			return fmt.Errorf("lsm: plan input run %d at L%d is deeper than output L%d", r.seq, r.level, outLevel)
		}
		if r.level < minInLevel {
			minInLevel = r.level
		}
		if r.level == 0 {
			hasL0 = true
			if r.seq > maxL0Seq {
				maxL0Seq = r.seq
			}
		}
	}
	for _, r := range rest {
		switch {
		case r.level == 0:
			// A remaining L0 run keeps its position before the output, so it
			// must be newer than every L0 input it will now shadow.
			if hasL0 && r.seq < maxL0Seq {
				return fmt.Errorf("lsm: plan skips L0 run %d older than input %d", r.seq, maxL0Seq)
			}
		case r.level <= outLevel:
			// A remaining mid-level run ends up before the output; data merged
			// from any shallower (newer) level would be shadowed by it.
			if minInLevel < r.level {
				return fmt.Errorf("lsm: plan moves L%d data below remaining L%d run %d", minInLevel, r.level, r.seq)
			}
		}
	}
	return nil
}
