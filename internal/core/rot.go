package core

import (
	"math/rand"

	"shardstore/internal/chunk"
	"shardstore/internal/disk"
	"shardstore/internal/store"
)

// applyRot implements the silent-corruption ops. Every random choice derives
// from op.CrashSeed, so minimized sequences replay identically.
//
// RotReplica enforces k < R at injection time: it corrupts one replica only
// if at least two replicas of the chosen piece currently verify, so the shard
// must remain readable through the surviving copy (and a scrub round must
// repair it) — that invariant is exactly what the lockstep model keeps
// checking, with no model change needed. RotAll corrupts every replica
// (k = R) and tells the model the shard may now legitimately fail to read;
// the scrub op separately asserts the loss is *reported*, never silently
// served.
func (es *execState) applyRot(op Op) error {
	entry, err := es.st.Index().Get(op.Key)
	if err != nil {
		return nil // absent shard: nothing to rot
	}
	groups, err := store.DecodeEntryGroups(entry)
	if err != nil || len(groups) == 0 {
		return nil
	}
	group := groups[op.Extent%len(groups)]
	switch op.Kind {
	case OpRotReplica:
		var good []int
		for i, loc := range group {
			if es.replicaVerifies(op.Key, loc) {
				good = append(good, i)
			}
		}
		if len(good) < 2 {
			return nil // would push k to R; keep the property k < R
		}
		es.rotLocator(group[good[0]], es.crashRand(op.CrashSeed))
	case OpRotAll:
		rotted := false
		rng := es.crashRand(op.CrashSeed)
		for _, loc := range group {
			if es.rotLocator(loc, rng) {
				rotted = true
			}
		}
		if rotted {
			es.ref.MarkRotted(op.Key)
		}
	}
	return nil
}

// replicaVerifies reports whether the frame at loc currently reads, decodes,
// and carries the right owner — through the same IO path the store uses, so
// "good" matches what a reader (and the scrubber) would observe.
func (es *execState) replicaVerifies(key string, loc chunk.Locator) bool {
	buf := make([]byte, loc.Length)
	if err := es.st.Extents().Read(loc.Extent, loc.Offset, loc.Length, buf); err != nil {
		return false
	}
	_, owner, _, err := chunk.DecodeFrame(buf)
	return err == nil && owner == key
}

// rotLocator corrupts one seed-chosen durable page of the frame at loc:
// mostly bit flips, occasionally a zeroed page. Chunks are page aligned, so
// the rot stays within this frame.
func (es *execState) rotLocator(loc chunk.Locator, rng *rand.Rand) bool {
	ps := es.cfg.StoreConfig.Disk.PageSize
	if ps <= 0 || loc.Length <= 0 {
		return false
	}
	pages := (loc.Length + ps - 1) / ps
	page := loc.Offset/ps + rng.Intn(pages)
	mode := disk.RotFlip
	if rng.Float64() < 0.25 {
		mode = disk.RotZero
	}
	return es.d.CorruptPage(loc.Extent, page, mode, rng.Int63())
}
