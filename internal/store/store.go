// Package store implements the ShardStore key-value storage node API (§2 of
// the paper): put/get/delete of shards, the background maintenance tasks
// (index flush and compaction, chunk reclamation, superblock flush), clean
// shutdown, crash + recovery, and the control-plane operations (list,
// remove/return from service).
//
// A shard's value is split into one or more data chunks in the chunk store;
// the index entry written to the LSM tree is the encoded list of chunk
// locators. A put's returned dependency covers the data chunks, the index
// entry (run chunk + LSM metadata), and the superblock soft-write-pointer
// updates — the dependency graph of the paper's Fig 2.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"shardstore/internal/chunk"
	"shardstore/internal/compact"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/faults"
	"shardstore/internal/lsm"
	"shardstore/internal/obs"
	"shardstore/internal/scrub"
	"shardstore/internal/vsync"
)

// Store-level errors.
var (
	// ErrNotFound is returned by Get for unknown shards.
	ErrNotFound = lsm.ErrNotFound
	// ErrOutOfService is returned while the disk is removed from service.
	ErrOutOfService = errors.New("store: disk out of service")
	// ErrCorruptEntry is returned when an index entry fails to decode.
	ErrCorruptEntry = errors.New("store: corrupt index entry")
)

// Config assembles a storage node.
type Config struct {
	// Disk is the geometry for a freshly created disk (ignored by Reopen).
	Disk disk.Config
	// Seed drives all internal randomness deterministically.
	Seed int64
	// Replicas writes each data chunk to this many distinct extents
	// (intra-host redundancy, the raw material scrub repair works with).
	// Zero or one means a single copy. Replication covers shard data only;
	// index runs and metadata keep their existing single-copy layout.
	Replicas int
	// CacheCapacity is the buffer cache size in chunks.
	CacheCapacity int
	// MaxRuns bounds the LSM run list before auto-compaction.
	MaxRuns int
	// Compact tunes the leveled-compaction engine; the zero value takes the
	// engine's defaults (see compact.Policy).
	Compact compact.Policy
	// MaxMemEntries auto-flushes the memtable; zero disables.
	MaxMemEntries int
	// AutoFlushThreshold auto-flushes the superblock; zero disables.
	AutoFlushThreshold int
	// StagingTokens bounds staged superblock mutations (bug #12 pool).
	StagingTokens int
	// UUIDZeroBias biases chunk UUIDs toward all-zeros (see chunk.Config).
	UUIDZeroBias float64
	// Bugs selects seeded faults; nil means all fixed.
	Bugs *faults.Set
	// Obs is the node-wide observability registry: every layer (disk, cache,
	// chunk, LSM, scrub, store) resolves its metric handles from it and counts
	// its coverage probes in it, and its optional span tracer receives the
	// background windows (syncs, compaction, reclamation, scrub) and the
	// injected faults, rot, and crashes that overlap each traced request or
	// harness op. Nil gives the node a private registry on a
	// logical clock, so per-layer Stats keep working standalone and harness
	// runs stay deterministic.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Disk.PageSize == 0 {
		c.Disk = disk.DefaultConfig()
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 32
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Obs == nil {
		c.Obs = obs.New(nil)
	}
	if c.Disk.Obs == nil {
		c.Disk.Obs = c.Obs
	}
	return c
}

// storeMetrics holds the store-layer obs handles, resolved once at Open.
type storeMetrics struct {
	puts        *obs.Counter
	gets        *obs.Counter
	deletes     *obs.Counter
	getErrors   *obs.Counter
	putErrors   *obs.Counter
	scans       *obs.Counter
	scanEntries *obs.Counter
	scanErrors  *obs.Counter
	putLat      *obs.Histogram
	getLat      *obs.Histogram
	deleteLat   *obs.Histogram
	scanLat     *obs.Histogram
	maintErrors *obs.Counter
}

func newStoreMetrics(o *obs.Obs) storeMetrics {
	return storeMetrics{
		puts:        o.Counter("store.puts"),
		gets:        o.Counter("store.gets"),
		deletes:     o.Counter("store.deletes"),
		getErrors:   o.Counter("store.get_errors"),
		putErrors:   o.Counter("store.put_errors"),
		scans:       o.Counter("store.scans"),
		scanEntries: o.Counter("store.scan_entries"),
		scanErrors:  o.Counter("store.scan_errors"),
		putLat:      o.Histogram("store.put_lat"),
		getLat:      o.Histogram("store.get_lat"),
		deleteLat:   o.Histogram("store.delete_lat"),
		scanLat:     o.Histogram("store.scan_lat"),
		maintErrors: o.Counter("store.maintain_errors"),
	}
}

// Store is one storage node (one disk's key-value store).
type Store struct {
	mu  vsync.Mutex
	cfg Config
	obs *obs.Obs
	met storeMetrics

	d         *disk.Disk
	sched     *dep.Scheduler
	em        *extent.Manager
	cs        *chunk.Store
	idx       *lsm.Tree
	scrubber  *scrub.Scrubber
	compactor *compact.Engine

	// loopStop/loopDone manage the background maintenance loop (Start).
	// loopEvery is the interval Start last launched it at; ReturnToService
	// starts the replacement store's loop at the same interval.
	loopStop  chan struct{}
	loopDone  chan struct{}
	loopEvery time.Duration

	inService bool
}

// Open creates or recovers a storage node on d. A zero-filled disk is
// formatted; a disk with a valid superblock is recovered from it.
func Open(d *disk.Disk, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	bugs := cfg.Bugs
	sched := dep.NewScheduler(d, dep.Options{Obs: cfg.Obs, Bugs: bugs})
	em, err := extent.Recover(sched, extent.Config{
		AutoFlushThreshold: cfg.AutoFlushThreshold,
		StagingTokens:      cfg.StagingTokens,
	}, bugs)
	if err != nil {
		return nil, err
	}
	cs := chunk.NewStore(em, chunk.Config{UUIDZeroBias: cfg.UUIDZeroBias, CacheCapacity: cfg.CacheCapacity, Obs: cfg.Obs}, cfg.Seed, bugs)
	ms, err := lsm.NewExtentMetaStore(sched, extent.MetaExtent, lsm.MaxMetaPayload(cfg.MaxRuns))
	if err != nil {
		return nil, err
	}
	idx, err := lsm.NewTree(cs, ms, sched, lsm.Config{
		MaxRuns:       cfg.MaxRuns,
		MaxMemEntries: cfg.MaxMemEntries,
		ResetHappened: em.ResetHappened,
		Obs:           cfg.Obs,
	}, bugs)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:       cfg,
		obs:       cfg.Obs,
		met:       newStoreMetrics(cfg.Obs),
		d:         d,
		sched:     sched,
		em:        em,
		cs:        cs,
		idx:       idx,
		inService: true,
	}
	cs.RegisterResolver(chunk.TagIndexRun, lsm.RunResolver{Tree: idx})
	cs.RegisterResolver(chunk.TagData, dataResolver{s: s})
	s.scrubber = scrub.New(scrubHost{s: s}, scrub.Config{Obs: cfg.Obs}, bugs)
	s.compactor = compact.New(compactHost{s: s}, cfg.Compact, cfg.Obs)
	s.obs.Hit("store.open")
	return s, nil
}

// New creates a fresh disk from cfg.Disk and opens a store on it.
func New(cfg Config) (*Store, *disk.Disk, error) {
	cfg = cfg.withDefaults()
	d, err := disk.New(cfg.Disk)
	if err != nil {
		return nil, nil, err
	}
	s, err := Open(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, d, nil
}

// Disk returns the underlying disk.
func (s *Store) Disk() *disk.Disk { return s.d }

// Config returns the configuration the store was opened with (with defaults
// applied), so a recovered instance can be opened identically.
func (s *Store) Config() Config { return s.cfg }

// Scheduler returns the IO scheduler.
func (s *Store) Scheduler() *dep.Scheduler { return s.sched }

// Extents returns the extent manager.
func (s *Store) Extents() *extent.Manager { return s.em }

// Chunks returns the chunk store.
func (s *Store) Chunks() *chunk.Store { return s.cs }

// Obs returns the node-wide observability registry.
func (s *Store) Obs() *obs.Obs { return s.obs }

// Index returns the LSM index.
func (s *Store) Index() *lsm.Tree { return s.idx }

// Reseed re-seeds internal randomness (chunk UUIDs etc.) so harness op
// sequences replay deterministically after minimization (§4.3).
func (s *Store) Reseed(seed int64) {
	s.cs.Reseed(seed)
}

// --- index entry encoding: the chunk locators for a shard ---
//
// Single-copy entries use the legacy flat format `uint16 pieceCount |
// pieceCount locators` (length ≡ 2 mod 12). Replicated entries record,
// piece-major, the replica locators of every piece: `uint16 pieceCount |
// uint16 replicas | pieceCount×replicas locators` (length ≡ 4 mod 12, so the
// two formats never collide). Piece i's replicas are the i-th group of
// `replicas` locators; any one decodable replica of each piece reconstructs
// the piece. Entries self-describe their replication factor, so a disk
// written with one cfg.Replicas recovers correctly under another.

func encodeEntryGroups(groups [][]chunk.Locator) []byte {
	replicas := 1
	for _, g := range groups {
		if len(g) > replicas {
			replicas = len(g)
		}
	}
	if replicas == 1 {
		locs := make([]chunk.Locator, 0, len(groups))
		for _, g := range groups {
			locs = append(locs, g...)
		}
		return encodeEntry(locs)
	}
	buf := make([]byte, 0, 4+len(groups)*replicas*12)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(groups)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(replicas))
	for _, g := range groups {
		for _, l := range g {
			buf = append(buf, chunk.EncodeLocator(l)...)
		}
	}
	return buf
}

// encodeEntry encodes single-copy locators (one replica per piece) in the
// legacy flat format.
func encodeEntry(locs []chunk.Locator) []byte {
	buf := make([]byte, 0, 2+len(locs)*12)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(locs)))
	for _, l := range locs {
		buf = append(buf, chunk.EncodeLocator(l)...)
	}
	return buf
}

// DecodeEntryGroups parses an index entry into per-piece replica groups.
// Flat (single-copy) entries decode as one-replica groups.
func DecodeEntryGroups(buf []byte) ([][]chunk.Locator, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: short entry", ErrCorruptEntry)
	}
	pieces := int(binary.BigEndian.Uint16(buf[:2]))
	replicas := 1
	rest := buf[2:]
	if len(buf)%12 == 4 { // grouped format carries a replica count too
		replicas = int(binary.BigEndian.Uint16(buf[2:4]))
		rest = buf[4:]
		if replicas < 1 {
			return nil, fmt.Errorf("%w: zero replicas", ErrCorruptEntry)
		}
	}
	// Size check before allocating: a fuzzed header must not buy a huge slice.
	if len(rest) != pieces*replicas*12 {
		return nil, fmt.Errorf("%w: %d bytes for %d×%d locators", ErrCorruptEntry, len(rest), pieces, replicas)
	}
	groups := make([][]chunk.Locator, pieces)
	for i := range groups {
		g := make([]chunk.Locator, 0, replicas)
		for r := 0; r < replicas; r++ {
			l, r2, err := chunk.DecodeLocator(rest)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptEntry, err)
			}
			g = append(g, l)
			rest = r2
		}
		groups[i] = g
	}
	return groups, nil
}

// DecodeEntry parses an index entry into the flat list of every locator it
// references (all replicas of all pieces). Exported for the
// serialization-robustness property tests (§7); reclamation's reverse lookup
// uses it too, since a chunk is live if any group references it.
func DecodeEntry(buf []byte) ([]chunk.Locator, error) {
	groups, err := DecodeEntryGroups(buf)
	if err != nil {
		return nil, err
	}
	var locs []chunk.Locator
	for _, g := range groups {
		locs = append(locs, g...)
	}
	return locs, nil
}

// Put stores data under shardID and returns the dependency that becomes
// persistent once the shard is durable (data chunks + index entry + LSM
// metadata + superblock pointer updates; Fig 2). The shard is readable
// immediately; the dependency is for durability polling.
func (s *Store) Put(shardID string, data []byte) (*dep.Dependency, error) {
	start := s.obs.Now()
	d, err := s.putInner(shardID, data)
	if err != nil {
		s.met.putErrors.Inc()
	} else {
		s.met.puts.Inc()
		s.met.putLat.Observe(s.obs.Now() - start)
	}
	return d, err
}

func (s *Store) putInner(shardID string, data []byte) (*dep.Dependency, error) {
	if err := s.requireInService(); err != nil {
		return nil, err
	}
	// Chunk the value; each piece is written cfg.Replicas times, every copy
	// on a distinct extent, so one rotted extent cannot take out a piece.
	var groups [][]chunk.Locator
	var releases []func()
	dataDep := dep.Resolved()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	pieces := splitValue(data, s.maxChunkPayload())
	for _, piece := range pieces {
		group := make([]chunk.Locator, 0, s.cfg.Replicas)
		var used []disk.ExtentID
		for r := 0; r < s.cfg.Replicas; r++ {
			loc, d, release, err := s.cs.PutAvoiding(chunk.TagData, shardID, piece, used)
			if err != nil {
				return nil, err
			}
			releases = append(releases, release)
			group = append(group, loc)
			used = append(used, loc.Extent)
			dataDep = dataDep.And(d)
		}
		groups = append(groups, group)
	}
	if s.cfg.Replicas > 1 {
		s.obs.Hit("store.put.replicated")
	}
	// The index entry is ordered after the shard data (Fig 2). The entry
	// write must happen under the store lock: reclamation's relocation path
	// (dataResolver.RelocateChunk) does a read-modify-write of the same entry
	// under s.mu, and an entry written between its read and its write would
	// be silently clobbered with the pre-relocation locators — a lost update
	// that serves stale shard data.
	s.mu.Lock()
	idxDep, err := s.idx.Put(shardID, encodeEntryGroups(groups), dataDep)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.obs.Hit("store.put")
	return dataDep.And(idxDep), nil
}

// maxChunkPayload is the largest chunk a shard value is split into: 1.5
// pages (§2.1: "a single shard comprises one or more chunks depending on its
// size").
func (s *Store) maxChunkPayload() int { return s.cfg.Disk.PageSize + s.cfg.Disk.PageSize/2 }

// splitValue cuts data into max-sized pieces; an empty value still gets one
// empty chunk so the shard exists on disk.
func splitValue(data []byte, max int) [][]byte {
	if len(data) == 0 {
		return [][]byte{{}}
	}
	var out [][]byte
	for len(data) > 0 {
		n := max
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// Get returns the shard's data or ErrNotFound. The slice is the caller's
// own: nothing in the node holds it.
//
// Because reclamation can relocate a shard's chunks concurrently with a
// read, a locator fetched from the index may be stale by the time its chunk
// is read. The chunk frame carries its owning key, so Get validates every
// chunk it reads against shardID and retries once through the index on a
// mismatch or decode failure. Seeded bug #11 skips that validation — the
// race the paper describes as "chunk locators could become invalid after a
// race between write and flush".
func (s *Store) Get(shardID string) ([]byte, error) {
	start := s.obs.Now()
	data, err := s.getInner(shardID)
	if err != nil {
		s.met.getErrors.Inc()
	} else {
		s.met.gets.Inc()
		s.met.getLat.Observe(s.obs.Now() - start)
	}
	return data, err
}

func (s *Store) getInner(shardID string) ([]byte, error) {
	if err := s.requireInService(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		entry, err := s.idx.Get(shardID)
		if err != nil {
			return nil, err
		}
		groups, err := DecodeEntryGroups(entry)
		if err != nil {
			return nil, err
		}
		data, err := s.readChunks(shardID, groups)
		if err == nil {
			s.obs.Hit("store.get")
			return data, nil
		}
		lastErr = err
		if s.bugs().Enabled(faults.Bug11WriteFlushRace) {
			// Seeded bug #11: no validation retry; a stale locator's data is
			// returned (or failed) as-is.
			s.obs.Hit("store.bug11.no_retry")
			break
		}
		s.obs.Hit("store.get.retry")
		vsync.Yield()
	}
	return nil, fmt.Errorf("store: shard %q: %w", shardID, lastErr)
}

// readChunks fetches and validates the shard's chunks, invalidating the
// cache entries of mismatching locators so a retry re-reads from disk. Each
// piece needs only one healthy replica: replicas are tried in entry order and
// the first one that decodes with the right owner wins, so k < R rotted (or
// quarantined) copies leave the shard readable. The chunk store hands over
// payloads the caller owns, so a one-piece shard is returned as read and a
// longer one is assembled in a buffer sized once.
func (s *Store) readChunks(shardID string, groups [][]chunk.Locator) ([]byte, error) {
	bug11 := s.bugs().Enabled(faults.Bug11WriteFlushRace)
	var one [1][]byte // keeps a one-piece shard's list of pieces off the heap
	pieces := one[:0]
	total := 0
	for _, group := range groups {
		var payload []byte
		var lastErr error
		ok := false
		for ri, loc := range group {
			p, owner, err := s.cs.GetWithKey(loc)
			if err != nil {
				s.cs.InvalidateCached(loc)
				lastErr = err
				continue
			}
			if owner != shardID && !bug11 {
				s.cs.InvalidateCached(loc)
				s.obs.Hit("store.get.key_mismatch")
				lastErr = fmt.Errorf("store: locator %v owned by %q, want %q", loc, owner, shardID)
				continue
			}
			if ri > 0 {
				s.obs.Hit("store.get.replica_fallback")
			}
			payload = p
			ok = true
			break
		}
		if !ok {
			return nil, lastErr
		}
		pieces = append(pieces, payload)
		total += len(payload)
	}
	if len(pieces) == 1 && pieces[0] != nil {
		return pieces[0], nil
	}
	// make never returns nil, so an empty shard reads back as []byte{}.
	data := make([]byte, 0, total)
	for _, p := range pieces {
		data = append(data, p...)
	}
	return data, nil
}

// Delete removes shardID; its chunks become garbage for reclamation.
// Deleting an absent shard is not an error (it is idempotent).
func (s *Store) Delete(shardID string) (*dep.Dependency, error) {
	start := s.obs.Now()
	d, err := s.deleteInner(shardID)
	if err == nil {
		s.met.deletes.Inc()
		s.met.deleteLat.Observe(s.obs.Now() - start)
	}
	return d, err
}

func (s *Store) deleteInner(shardID string) (*dep.Dependency, error) {
	if err := s.requireInService(); err != nil {
		return nil, err
	}
	// Under s.mu for the same reason as putInner: a relocation's
	// read-modify-write of this entry must not straddle the tombstone, or
	// the relocated entry resurrects the deleted shard.
	s.mu.Lock()
	d, err := s.idx.Delete(shardID)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.obs.Hit("store.delete")
	return d, nil
}

func (s *Store) requireInService() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inService {
		return ErrOutOfService
	}
	return nil
}

// --- background maintenance (explicit so harnesses control scheduling) ---

// FlushIndex flushes the LSM memtable (the IndexFlush op of §5).
func (s *Store) FlushIndex() (*dep.Dependency, error) { return s.idx.Flush() }

// CompactIndex merges the LSM runs.
func (s *Store) CompactIndex() error { return s.idx.Compact() }

// FlushSuperblock writes a superblock record with the staged pointers.
func (s *Store) FlushSuperblock() (*dep.Dependency, error) { return s.em.Flush() }

// Reclaim garbage-collects one extent.
func (s *Store) Reclaim(ext disk.ExtentID) error {
	err := s.cs.Reclaim(ext)
	if err == nil {
		s.obs.Hit("store.reclaim")
	}
	return err
}

// ReclaimAuto garbage-collects the first eligible extent.
func (s *Store) ReclaimAuto() (bool, error) { return s.cs.ReclaimAuto() }

// SchedStep issues one round of issuable writebacks without syncing.
func (s *Store) SchedStep() int { return s.sched.Step() }

// SchedSync flushes the disk write cache.
func (s *Store) SchedSync() error { return s.sched.Sync() }

// Maintain runs one maintenance tick, the body of the background loop
// (Start): index flush, superblock flush, one reclamation, one scheduler
// step, a sync and one compaction step, in that order. Every step runs even
// when an earlier one fails; each failure counts in store.maintain_errors
// and the result joins them. A store out of service does nothing and
// returns ErrOutOfService, so a tick can never write a disk that a
// returned-to-service store now owns.
func (s *Store) Maintain() error {
	if err := s.requireInService(); err != nil {
		return err
	}
	_, flushErr := s.FlushIndex()
	_, superErr := s.FlushSuperblock()
	_, reclaimErr := s.ReclaimAuto()
	s.SchedStep()
	syncErr := s.SchedSync()
	_, compactErr := s.CompactStep()
	errs := [...]error{flushErr, superErr, reclaimErr, syncErr, compactErr}
	for _, err := range errs {
		if err != nil {
			s.met.maintErrors.Inc()
		}
	}
	return errors.Join(errs[:]...)
}

// Pump drives the IO scheduler to quiescence (flushing the index and
// superblock first so futures are bound).
func (s *Store) Pump() error {
	if _, err := s.idx.Flush(); err != nil {
		return err
	}
	if _, err := s.em.Flush(); err != nil {
		return err
	}
	return s.sched.Pump()
}

// WaitDurable blocks until d is persistent, enrolling in the scheduler's
// current commit group: concurrent durability waiters (puts, LSM flushes,
// scrub repairs, durable RPC mutations) share one leader-driven issue+sync
// pass instead of each pumping the scheduler — the group-commit write path.
// The leader's bind step flushes the index memtable and the superblock
// record, which binds the staged futures of every waiter enrolled from the
// same generation.
func (s *Store) WaitDurable(d *dep.Dependency) error {
	return s.WaitDurableTraced(d, nil)
}

// WaitDurableTraced is WaitDurable with an optional request span: the
// caller's barrier role — follower enroll waits vs the leader's coalesced
// sync rounds (with group size) — lands on sp as stages. A nil sp behaves
// exactly like WaitDurable; the span never changes scheduling.
func (s *Store) WaitDurableTraced(d *dep.Dependency, sp *obs.Span) error {
	return s.sched.CommitTraced(d, func() error {
		if _, err := s.idx.Flush(); err != nil {
			return err
		}
		_, err := s.em.Flush()
		return err
	}, sp)
}

// DrainCache empties the buffer cache (a harness op for reaching the
// cache-miss path; §8.3).
func (s *Store) DrainCache() { s.cs.Cache().DrainAll() }
