package store

import (
	"fmt"
	"math/rand"
	"time"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/vsync"
)

// Start launches the store's background maintenance loop: every interval it
// runs Maintain and then one rate-limited ScrubStep. It is idempotent while a
// loop runs, and an interval <= 0 starts nothing. The loop belongs to this
// store for its whole life: CleanShutdown, Crash and removal from service
// stop it, and ReturnToService starts the replacement store's own. The loop
// is a plain goroutine on a wall-clock ticker; deterministic harnesses never
// start it and call Maintain and the scrub steps as operations instead.
func (s *Store) Start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.loopStop, s.loopDone, s.loopEvery = stop, done, interval
	//shardlint:allow syncusage wall-clock maintenance loop; shuttle-driven harnesses never start it and call Maintain directly
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_ = s.Maintain()
				_, _, _ = s.ScrubStep()
			}
		}
	}()
	s.obs.Hit("store.maintain_loop_start")
}

// Stop stops the background maintenance loop and waits for it to exit; no
// maintenance or repair IO is in flight afterwards. Safe to call when no loop
// runs. It waits without holding s.mu, which every tick takes.
func (s *Store) Stop() {
	s.mu.Lock()
	stop, done := s.loopStop, s.loopDone
	s.loopStop, s.loopDone = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// CleanShutdown quiesces the node for a non-crashing shutdown: the memtable
// is flushed (bug #3 site inside lsm), the superblock is written, and the IO
// scheduler pumps every writeback to durability. After a successful
// CleanShutdown every previously returned dependency reports persistent —
// the §5 forward-progress property.
func (s *Store) CleanShutdown() error {
	// Stop the maintenance loop before any teardown flush: a manifest swap
	// or a repair mid-shutdown would race the final index flush.
	s.Stop()
	if _, err := s.idx.Shutdown(); err != nil {
		return fmt.Errorf("store: shutdown index flush: %w", err)
	}
	if _, err := s.em.Flush(); err != nil {
		return fmt.Errorf("store: shutdown superblock flush: %w", err)
	}
	if err := s.sched.Pump(); err != nil {
		return fmt.Errorf("store: shutdown pump: %w", err)
	}
	// The index flush itself staged new superblock pointers; flush and pump
	// once more so they are durable too.
	if _, err := s.em.Flush(); err != nil {
		return err
	}
	if err := s.sched.Pump(); err != nil {
		return fmt.Errorf("store: shutdown final pump: %w", err)
	}
	s.mu.Lock()
	s.inService = false
	s.mu.Unlock()
	s.obs.Hit("store.clean_shutdown")
	return nil
}

// Crash simulates a fail-stop crash: pending writebacks are dropped and the
// disk write cache is torn at page granularity using rng. The store object
// is dead afterwards; call Open on the same disk to recover. The returned
// page lists describe what survived.
func (s *Store) Crash(rng *rand.Rand) (kept, lost []disk.PageAddr) {
	s.Stop()
	s.mu.Lock()
	s.inService = false
	s.mu.Unlock()
	s.obs.Hit("store.crash")
	return s.sched.Crash(rng)
}

// CrashKeep is the deterministic crash used by the exhaustive block-level
// crash-state enumerator (§5).
func (s *Store) CrashKeep(keep func(disk.PageAddr) bool) (kept, lost []disk.PageAddr) {
	s.Stop()
	s.mu.Lock()
	s.inService = false
	s.mu.Unlock()
	return s.sched.CrashKeep(keep)
}

// --- control plane (§2.1 RPC interface: "control-plane operations for
// migration and repair") ---

// List returns the shard ids known to the control plane. The correct
// implementation snapshots the catalog under the lock; seeded bug #13 reads
// the length and the elements in separate steps, racing with concurrent
// removals.
func (s *Store) List() ([]string, error) {
	if err := s.requireInService(); err != nil {
		return nil, err
	}
	if s.bugs().Enabled(faults.Bug13ListRemoveRace) {
		s.mu.Lock()
		n := len(s.catalog)
		s.mu.Unlock()
		vsync.Yield()
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			s.mu.Lock()
			if i < len(s.catalog) {
				out = append(out, s.catalog[i])
			}
			s.mu.Unlock()
			vsync.Yield()
		}
		s.obs.Hit("store.bug13.racy_list")
		return out, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.catalog...), nil
}

// BulkCreate stores a batch of shards (a control-plane repair/migration
// operation). values[i] is stored under ids[i].
func (s *Store) BulkCreate(ids []string, values [][]byte) (*dep.Dependency, error) {
	if len(ids) != len(values) {
		return nil, fmt.Errorf("store: bulk create: %d ids, %d values", len(ids), len(values))
	}
	d := dep.Resolved()
	for i, id := range ids {
		pd, err := s.Put(id, values[i])
		if err != nil {
			return nil, err
		}
		d = d.And(pd)
		vsync.Yield()
	}
	s.obs.Hit("store.bulk_create")
	return d, nil
}

// BulkRemove deletes a batch of shards. The correct implementation looks up
// and removes each shard atomically; seeded bug #16 captures the catalog
// position in one step and deletes whatever occupies that position in a
// later step — racing with a concurrent bulk create, it can remove a shard
// the caller never named.
func (s *Store) BulkRemove(ids []string) (*dep.Dependency, error) {
	if err := s.requireInService(); err != nil {
		return nil, err
	}
	d := dep.Resolved()
	for _, id := range ids {
		if s.bugs().Enabled(faults.Bug16BulkCreateRemoveRace) {
			s.mu.Lock()
			pos := -1
			for i, c := range s.catalog {
				if c == id {
					pos = i
					break
				}
			}
			s.mu.Unlock()
			if pos < 0 {
				continue
			}
			vsync.Yield() // a concurrent BulkCreate can shift the catalog here
			s.mu.Lock()
			if pos < len(s.catalog) {
				victim := s.catalog[pos]
				s.catalog = append(s.catalog[:pos], s.catalog[pos+1:]...)
				s.mu.Unlock()
				dd, err := s.idx.Delete(victim)
				if err != nil {
					return nil, err
				}
				d = d.And(dd)
				s.obs.Hit("store.bug16.positional_delete")
			} else {
				s.mu.Unlock()
			}
			continue
		}
		dd, err := s.Delete(id)
		if err != nil {
			return nil, err
		}
		d = d.And(dd)
		vsync.Yield()
	}
	s.obs.Hit("store.bulk_remove")
	return d, nil
}

// RemoveFromService takes the disk out of service for maintenance (a
// control-plane operation). The correct implementation quiesces the node
// first, exactly like a clean shutdown; seeded bug #4 skips that flush, so
// buffered index entries are silently dropped and the shards they describe
// are lost when the disk later returns to service.
func (s *Store) RemoveFromService() error {
	if err := s.requireInService(); err != nil {
		return err
	}
	if s.bugs().Enabled(faults.Bug4DiskReturnLosesShard) {
		s.Stop() // the seeded bug skips the flush, not the loop's stop
		s.mu.Lock()
		s.inService = false
		s.mu.Unlock()
		s.obs.Hit("store.bug4.skip_flush")
		return nil
	}
	return s.CleanShutdown()
}

// ReturnToService brings a removed disk back by re-opening the store state
// from disk, exactly like crash recovery but without a crash. If this store
// ever ran a maintenance loop, the returned store starts its own at the same
// interval: the removed store's loop stopped with it, and its Maintain does
// nothing out of service.
func (s *Store) ReturnToService() (*Store, error) {
	s.mu.Lock()
	if s.inService {
		s.mu.Unlock()
		return s, nil
	}
	every := s.loopEvery
	s.mu.Unlock()
	ns, err := Open(s.d, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("store: return to service: %w", err)
	}
	ns.Start(every)
	s.obs.Hit("store.return_to_service")
	return ns, nil
}

func (s *Store) bugs() *faults.Set { return s.cfg.Bugs }

// --- reclamation resolver for shard data chunks (§2.1: "reclamation
// performs a reverse lookup in the index") ---

type dataResolver struct{ s *Store }

// ChunkLive reports whether the index still references loc for key.
func (r dataResolver) ChunkLive(key string, loc chunk.Locator) bool {
	entry, err := r.s.idx.Get(key)
	if err != nil {
		return false
	}
	locs, err := DecodeEntry(entry)
	if err != nil {
		return false
	}
	for _, l := range locs {
		if l == loc {
			return true
		}
	}
	return false
}

// RelocateChunk atomically swaps old for newLoc in key's index entry. The
// store lock makes the read-modify-write atomic with respect to concurrent
// puts of the same shard.
func (r dataResolver) RelocateChunk(key string, old, newLoc chunk.Locator, newDep *dep.Dependency) (bool, *dep.Dependency, error) {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, err := s.idx.Get(key)
	if err != nil {
		return false, nil, nil // entry gone; evacuated copy becomes garbage
	}
	groups, err := DecodeEntryGroups(entry)
	if err != nil {
		return false, nil, err
	}
	found := false
	for gi := range groups {
		for ri := range groups[gi] {
			if groups[gi][ri] == old {
				groups[gi][ri] = newLoc
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		return false, nil, nil
	}
	// The updated index entry must persist only after the evacuated chunk.
	d, err := s.idx.Put(key, encodeEntryGroups(groups), newDep)
	if err != nil {
		return false, nil, err
	}
	s.obs.Hit("store.chunk_relocated")
	return true, d, nil
}

// SyncReferences implements chunk.Resolver. Data chunks become garbage when
// a delete or an overwrite supersedes them; that superseding index state may
// still be buffered in the memtable or sitting in unsynced runs. Flushing
// the memtable returns a dependency that — through the chained metadata
// records — covers the entire current index state, so an extent reset that
// waits on it can never destroy a chunk that a crash-recovered index would
// still reference.
func (r dataResolver) SyncReferences() (*dep.Dependency, error) {
	return r.s.idx.Flush()
}

var _ chunk.Resolver = dataResolver{}
