package store

import (
	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/scrub"
)

// --- scrub host: the storage-node surface the integrity scrubber works
// against (see internal/scrub). Repair reuses the reclamation machinery:
// PutAvoiding for the pinned write, the data resolver's CAS for the entry
// swap — so scrub and GC share one ordering discipline and a repair can
// never resurrect a chunk that reclamation already moved. ---

type scrubHost struct{ s *Store }

func (h scrubHost) LiveKeys() ([]string, error) {
	keys, _, err := h.s.idx.Keys("", "", 0)
	return keys, err
}

func (h scrubHost) ReadEntry(key string) ([][]chunk.Locator, error) {
	entry, err := h.s.idx.Get(key)
	if err != nil {
		return nil, err
	}
	return DecodeEntryGroups(entry)
}

// ReadFrame reads the raw frame bytes from the extent manager, bypassing the
// chunk buffer cache: the scrubber verifies what the media holds, not what a
// cache remembers from before the rot.
func (h scrubHost) ReadFrame(loc chunk.Locator) ([]byte, error) {
	buf := make([]byte, loc.Length)
	if err := h.s.em.Read(loc.Extent, loc.Offset, loc.Length, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (h scrubHost) WriteRepair(key string, payload []byte, avoid []disk.ExtentID) (chunk.Locator, *dep.Dependency, func(), error) {
	return h.s.cs.PutAvoiding(chunk.TagData, key, payload, avoid)
}

func (h scrubHost) SwapReplica(key string, old, newLoc chunk.Locator, d *dep.Dependency) (bool, error) {
	swapped, _, err := dataResolver{s: h.s}.RelocateChunk(key, old, newLoc, d)
	return swapped, err
}

func (h scrubHost) Quarantine(loc chunk.Locator) { h.s.cs.Quarantine(loc) }

var _ scrub.Host = scrubHost{}

// Scrubber returns the node's integrity scrubber.
func (s *Store) Scrubber() *scrub.Scrubber { return s.scrubber }

// ScrubRound runs one full scrub pass over every live shard: verify all
// replicas, repair rotted copies from survivors, record irreparable losses.
func (s *Store) ScrubRound() (scrub.Result, error) {
	if err := s.requireInService(); err != nil {
		return scrub.Result{}, err
	}
	res, err := s.scrubber.Round()
	if err == nil {
		s.obs.Hit("store.scrub_round")
	}
	if err == nil && res.Repaired > 0 {
		// Repairs rewrote chunks and swapped index locators; make them
		// durable through the shared commit barrier so a crash right after
		// the round cannot resurrect the rotted copies. The index flush
		// dependency covers the whole current index state (see
		// dataResolver.SyncReferences), including the repair swaps.
		fd, ferr := s.idx.Flush()
		if ferr != nil {
			return res, ferr
		}
		if werr := s.WaitDurable(fd); werr != nil {
			return res, werr
		}
		s.obs.Hit("store.scrub_repair_committed")
	}
	return res, err
}

// ScrubStep runs one rate-limited scrub increment (at most the configured
// number of shards), resuming from the previous step's cursor.
func (s *Store) ScrubStep() (scrub.Result, bool, error) {
	if err := s.requireInService(); err != nil {
		return scrub.Result{}, false, err
	}
	return s.scrubber.Step()
}
