// Package chunk implements ShardStore's chunk store (§2.1 of the paper): all
// persistent data — shard data and the LSM tree's own runs alike — is stored
// as framed chunks appended to extents. The store offers Put/Get by opaque
// locator and a reclamation (garbage collection) task that evacuates live
// chunks off an extent, updates their references through per-tag resolvers,
// and resets the extent for reuse with crash-consistent ordering.
package chunk

import (
	"errors"
	"fmt"
	"math/rand"

	"shardstore/internal/buffercache"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/prop"
	"shardstore/internal/vsync"
)

// Store-level errors.
var (
	ErrBusy        = errors.New("chunk: extent busy (active, pinned, or reclaiming)")
	ErrNoResolver  = errors.New("chunk: no resolver registered for tag")
	ErrChunkTooBig = errors.New("chunk: frame exceeds extent capacity")
	ErrAborted     = errors.New("chunk: reclamation aborted")
	ErrQuarantined = errors.New("chunk: locator quarantined (failed scrub verification)")
	ErrBadLocator  = errors.New("chunk: malformed locator")
)

// Locator is the opaque pointer to a stored chunk (§2.1: "locators are
// opaque chunk identifiers and used as pointers").
type Locator struct {
	Extent disk.ExtentID
	Offset int
	Length int // exact frame length (excluding page padding)
}

func (l Locator) String() string {
	return fmt.Sprintf("chunk@e%d+%d:%d", l.Extent, l.Offset, l.Length)
}

func (l Locator) cacheKey() buffercache.Key {
	return buffercache.Key{Extent: l.Extent, Offset: l.Offset}
}

// Resolver performs reclamation's reverse lookup for one chunk tag (§2.1):
// the index for shard data chunks, the LSM metadata for index-run chunks.
type Resolver interface {
	// ChunkLive reports whether the chunk at loc is still referenced.
	ChunkLive(key string, loc Locator) bool
	// RelocateChunk atomically updates the reference from old to newLoc,
	// provided the reference still points at old. The returned dependency
	// covers the reference update; the extent reset waits on it. relocated
	// is false if the reference changed concurrently (the evacuated copy
	// then simply becomes garbage).
	RelocateChunk(key string, old, newLoc Locator, newDep *dep.Dependency) (relocated bool, d *dep.Dependency, err error)
	// SyncReferences flushes any buffered reference updates so their
	// dependencies are bound to real writes (e.g. the index memtable is
	// flushed to a run chunk). Reclamation calls this after relocations and
	// before resetting the extent, so the reset's wait set is fully bound.
	SyncReferences() (*dep.Dependency, error)
}

// Config tunes the chunk store.
type Config struct {
	// UUIDZeroBias is the probability that a generated UUID is all zeros —
	// the §4.2-style corner-case bias that makes the §5 stale-byte collision
	// (bug #10) reachable by testing: zero UUIDs collide with never-written
	// regions and frame padding.
	UUIDZeroBias float64
	// CacheCapacity is the buffer cache size in chunks. The §8.3 anecdote —
	// a cache so large that tests never reached the miss path — is
	// reproduced by tuning this.
	CacheCapacity int
	// Obs is the observability registry for metrics, coverage probes and
	// tracing. Nil gives the store (and its buffer cache) a private registry
	// so Stats keeps working standalone.
	Obs *obs.Obs
}

// Stats counts chunk store activity. It is a thin snapshot of the store's
// obs registry counters.
type Stats struct {
	Puts            uint64
	Gets            uint64
	GetErrors       uint64
	Reclaims        uint64
	ReclaimAborts   uint64
	Evacuated       uint64
	GarbageDropped  uint64
	CorruptSkipped  uint64
	BytesEvacuated  uint64
	ExtentsRecycled uint64
	Quarantined     uint64
}

// chunkMetrics holds the obs handles, resolved once at construction so the
// hot paths never touch the registry map.
type chunkMetrics struct {
	puts            *obs.Counter
	gets            *obs.Counter
	getErrors       *obs.Counter
	reclaims        *obs.Counter
	reclaimAborts   *obs.Counter
	evacuated       *obs.Counter
	garbageDropped  *obs.Counter
	corruptSkipped  *obs.Counter
	bytesEvacuated  *obs.Counter
	extentsRecycled *obs.Counter
	quarantined     *obs.Counter
	putLat          *obs.Histogram
	getLat          *obs.Histogram
	reclaimDur      *obs.Histogram
}

func newChunkMetrics(o *obs.Obs) chunkMetrics {
	return chunkMetrics{
		puts:            o.Counter("chunk.puts"),
		gets:            o.Counter("chunk.gets"),
		getErrors:       o.Counter("chunk.get_errors"),
		reclaims:        o.Counter("chunk.reclaims"),
		reclaimAborts:   o.Counter("chunk.reclaim_aborts"),
		evacuated:       o.Counter("chunk.evacuated"),
		garbageDropped:  o.Counter("chunk.garbage_dropped"),
		corruptSkipped:  o.Counter("chunk.corrupt_skipped"),
		bytesEvacuated:  o.Counter("chunk.bytes_evacuated"),
		extentsRecycled: o.Counter("chunk.extents_recycled"),
		quarantined:     o.Counter("chunk.quarantined"),
		putLat:          o.Histogram("chunk.put_lat"),
		getLat:          o.Histogram("chunk.get_lat"),
		reclaimDur:      o.Histogram("chunk.reclaim_dur"),
	}
}

// Store is the chunk store for one disk.
type Store struct {
	mu   vsync.Mutex
	em   *extent.Manager
	bugs *faults.Set
	cfg  Config
	obs  *obs.Obs
	met  chunkMetrics

	cache *buffercache.Cache
	// seed is the last seed NewStore or Reseed recorded; newUUID's first draw
	// afterwards brings rng to it (seeded is false until then), so an op that
	// puts no chunk pays nothing for its re-seed.
	seed   int64
	seeded bool
	rng    *rand.Rand

	// active is the extent new chunks are appended to; none when negative.
	active int
	// pins counts in-flight chunks per extent whose references are not yet
	// registered; reclamation refuses pinned extents (the bug #14 guard).
	pins map[disk.ExtentID]int
	// reclaiming marks extents mid-reclamation; appends avoid them.
	reclaiming map[disk.ExtentID]bool
	// quarantined marks locators whose frames failed scrub verification;
	// reads refuse them so rotted bytes are never served, and an extent
	// reset clears its entries (the storage is reused for new chunks).
	quarantined map[Locator]bool

	resolvers map[Tag]Resolver
}

// NewStore creates a chunk store over em. seed drives internal randomness
// (UUID generation, victim selection) deterministically.
func NewStore(em *extent.Manager, cfg Config, seed int64, bugs *faults.Set) *Store {
	o := cfg.Obs
	if o == nil {
		o = obs.New(nil)
	}
	s := &Store{
		em:          em,
		bugs:        bugs,
		cfg:         cfg,
		obs:         o,
		met:         newChunkMetrics(o),
		cache:       buffercache.New(cfg.CacheCapacity, o),
		seed:        seed,
		active:      -1,
		pins:        make(map[disk.ExtentID]int),
		reclaiming:  make(map[disk.ExtentID]bool),
		quarantined: make(map[Locator]bool),
		resolvers:   make(map[Tag]Resolver),
	}
	return s
}

// RegisterResolver installs the reverse-lookup resolver for tag.
func (s *Store) RegisterResolver(tag Tag, r Resolver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolvers[tag] = r
}

// Reseed re-seeds the store's internal RNG. Harnesses call this before every
// operation with an op-specific tag so that minimized op sequences replay
// with identical internal randomness (§4.3 determinism). The seed is only
// recorded here; newUUID's next draw applies it (prop.Reseed), and draws what
// a newly constructed generator with that seed would.
func (s *Store) Reseed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed, s.seeded = seed, false
}

// Stats returns a snapshot of the counters (reading the obs registry).
func (s *Store) Stats() Stats {
	return Stats{
		Puts:            s.met.puts.Value(),
		Gets:            s.met.gets.Value(),
		GetErrors:       s.met.getErrors.Value(),
		Reclaims:        s.met.reclaims.Value(),
		ReclaimAborts:   s.met.reclaimAborts.Value(),
		Evacuated:       s.met.evacuated.Value(),
		GarbageDropped:  s.met.garbageDropped.Value(),
		CorruptSkipped:  s.met.corruptSkipped.Value(),
		BytesEvacuated:  s.met.bytesEvacuated.Value(),
		ExtentsRecycled: s.met.extentsRecycled.Value(),
		Quarantined:     s.met.quarantined.Value(),
	}
}

// Obs exposes the store's observability registry.
func (s *Store) Obs() *obs.Obs { return s.obs }

// Cache exposes the buffer cache (for stats and harness drains).
func (s *Store) Cache() *buffercache.Cache { return s.cache }

func (s *Store) newUUID() UUID {
	// The rng is shared mutable state: put() calls newUUID before taking the
	// store lock, and concurrent puts to the same disk (the rpc server's
	// pipelined dispatch) would otherwise race on it — as would Reseed.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seeded {
		s.rng, s.seeded = prop.Reseed(s.rng, s.seed), true
	}
	var u UUID
	if s.cfg.UUIDZeroBias > 0 && s.rng.Float64() < s.cfg.UUIDZeroBias {
		return u
	}
	for i := range u {
		u[i] = byte(s.rng.Intn(256))
	}
	return u
}

// pageSize returns the disk page size.
func (s *Store) pageSize() int { return s.em.Scheduler().Disk().Config().PageSize }

// padTo pads buf with zeros to a page multiple: chunks are page aligned so a
// torn page corrupts at most the chunks that actually touch it, and the
// reclamation scan can walk page boundaries.
func (s *Store) padTo(buf []byte) []byte {
	ps := s.pageSize()
	rem := len(buf) % ps
	if rem == 0 {
		return buf
	}
	return append(buf, make([]byte, ps-rem)...)
}

// ensureSpaceLocked returns an extent with room for need bytes, switching or
// allocating the active extent as required. GC-critical appends
// (evacuations, index runs) may consume the reserved headroom extent but
// must avoid extents whose reset record is not yet durable: an extent reset
// waits on its evacuations, so placing an evacuation behind another pending
// reset's gate could tie the two resets into a cycle. Ordinary data puts
// keep one free extent in reserve so reclamation always has somewhere to
// evacuate. Caller holds s.mu.
func (s *Store) ensureSpaceLocked(need int, critical bool, avoid map[disk.ExtentID]bool) (disk.ExtentID, error) {
	cap := s.em.Capacity()
	if need > cap {
		return 0, fmt.Errorf("%w: %d > %d", ErrChunkTooBig, need, cap)
	}
	usable := func(ext disk.ExtentID) bool {
		if avoid[ext] || s.reclaiming[ext] || s.em.Pointer(ext)+need > cap {
			return false
		}
		return !critical || !s.em.ResetGatePending(ext)
	}
	// Reserve GC headroom: ordinary data puts must not consume the last
	// writable extent, or reclamation (and the index flushes it depends on)
	// would have nowhere to write and a full disk could never recover
	// space. "Writable" counts unallocated extents and owned extents with
	// room (reset extents return to the pool with their pointer at zero).
	if !critical {
		writable := s.em.FreeCount()
		for _, ext := range s.em.OwnedExtents(extent.OwnerData) {
			if usable(ext) {
				writable++
			}
		}
		if writable <= 1 {
			s.obs.Hit("chunk.headroom_refused")
			return 0, fmt.Errorf("%w: last writable extent reserved for reclamation", extent.ErrNoFreeExtent)
		}
	}
	if s.active >= 0 {
		ext := disk.ExtentID(s.active)
		if usable(ext) {
			return ext, nil
		}
	}
	// Reuse an owned data extent with room (reset extents come back here).
	for _, ext := range s.em.OwnedExtents(extent.OwnerData) {
		if usable(ext) {
			s.active = int(ext)
			s.obs.Hit("chunk.active_switch")
			return ext, nil
		}
	}
	ext, err := s.em.Allocate(extent.OwnerData)
	if err != nil {
		return 0, err
	}
	s.active = int(ext)
	s.obs.Hit("chunk.allocate_extent")
	return ext, nil
}

// Put stores payload as a new chunk owned by (tag, key) and returns its
// locator, the dependency covering the chunk write (data pages plus the soft
// write pointer update, §2.2), and a release function. The caller must hold
// the release until the chunk's reference (index entry or metadata) is
// registered: it pins the extent against reclamation, closing the window
// where a freshly written chunk is invisible to the reverse lookup — the
// race at the heart of the paper's bug #14.
func (s *Store) Put(tag Tag, key string, payload []byte, waits ...*dep.Dependency) (Locator, *dep.Dependency, func(), error) {
	return s.put(tag, key, payload, false, nil, waits...)
}

// PutAvoiding is Put with extent-placement constraints: the chunk is never
// appended to an extent in avoid. It is how replicated writes land each copy
// on a distinct extent (so one rotted extent cannot take out every replica)
// and how scrub repair places the healed copy away from the survivors.
func (s *Store) PutAvoiding(tag Tag, key string, payload []byte, avoid []disk.ExtentID, waits ...*dep.Dependency) (Locator, *dep.Dependency, func(), error) {
	var m map[disk.ExtentID]bool
	if len(avoid) > 0 {
		m = make(map[disk.ExtentID]bool, len(avoid))
		for _, e := range avoid {
			m[e] = true
		}
	}
	return s.put(tag, key, payload, false, m, waits...)
}

// put implements Put; forEvacuation selects the reset-gate-avoiding
// placement policy used by reclamation, avoid excludes extents from
// placement (replica spreading).
func (s *Store) put(tag Tag, key string, payload []byte, forEvacuation bool, avoid map[disk.ExtentID]bool, waits ...*dep.Dependency) (Locator, *dep.Dependency, func(), error) {
	start := s.obs.Now()
	uuid := s.newUUID()
	// Allocate the frame with page-padded capacity up front: padTo then
	// extends in place and the buffer passes to the scheduler whole, so the
	// payload is copied exactly once on its way to the writeback queue — and,
	// when the writeback issues uncoalesced, exactly once more on its way to
	// the device, whose WriteAt reads the queued frame itself.
	flen := FrameLen(len(key), len(payload))
	ps := s.pageSize()
	paddedCap := (flen + ps - 1) / ps * ps
	frame, err := AppendFrame(make([]byte, 0, paddedCap), tag, key, payload, uuid)
	if err != nil {
		return Locator{}, nil, nil, err
	}
	padded := s.padTo(frame)

	s.mu.Lock()
	// Evacuations and index-run writes are GC- and metadata-critical: they
	// may consume the reserved headroom extent; ordinary data puts may not.
	critical := forEvacuation || tag == TagIndexRun
	ext, err := s.ensureSpaceLocked(len(padded), critical, avoid)
	if err != nil {
		s.mu.Unlock()
		return Locator{}, nil, nil, err
	}
	off, d, err := s.em.Append(fmt.Sprintf("%s chunk %q", tag, key), ext, padded, waits...)
	if err != nil {
		s.mu.Unlock()
		return Locator{}, nil, nil, err
	}
	s.pins[ext]++
	loc := Locator{Extent: ext, Offset: off, Length: flen}
	s.mu.Unlock()
	s.met.puts.Inc()
	s.met.putLat.Observe(s.obs.Now() - start)

	released := false
	release := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !released {
			released = true
			s.pins[ext]--
		}
	}
	return loc, d, release, nil
}

// Get reads and validates the chunk at loc, returning its payload. The
// payload is the caller's own: nothing else holds it, or the capacity behind
// it.
func (s *Store) Get(loc Locator) ([]byte, error) {
	payload, _, err := s.GetWithKey(loc)
	return payload, err
}

// GetWithKey reads the chunk at loc, returning payload and owning key. The
// payload is the caller's own: nothing else holds it, or the capacity behind
// it. The cache is populated on the read path (no write-allocate): entries record
// the owning key so callers can validate that a locator still names the
// chunk they meant (the bug #11 guard in the store layer).
func (s *Store) GetWithKey(loc Locator) ([]byte, string, error) {
	start := s.obs.Now()
	payload, key, err := s.getWithKey(loc)
	if err != nil {
		s.met.getErrors.Inc()
	} else {
		s.met.gets.Inc()
		s.met.getLat.Observe(s.obs.Now() - start)
	}
	return payload, key, err
}

// checkLocator rejects a locator that cannot name a frame on this disk. A
// locator is decoded from an index entry, so it is checked like any other
// bytes from disk before it sizes a buffer or indexes an extent table.
func (s *Store) checkLocator(loc Locator) error {
	if int(loc.Extent) >= s.em.ExtentCount() || loc.Offset < 0 || loc.Length <= 0 ||
		loc.Length > s.em.Capacity()-loc.Offset {
		return fmt.Errorf("%w: %v", ErrBadLocator, loc)
	}
	return nil
}

func (s *Store) getWithKey(loc Locator) ([]byte, string, error) {
	if err := s.checkLocator(loc); err != nil {
		return nil, "", err
	}
	s.mu.Lock()
	if s.quarantined[loc] {
		s.mu.Unlock()
		s.obs.Hit("chunk.get.quarantined")
		return nil, "", fmt.Errorf("%w: %v", ErrQuarantined, loc)
	}
	s.mu.Unlock()
	if cached, owner := s.cache.Get(loc.cacheKey()); cached != nil {
		// The one copy on this path: the cache lends, the caller owns.
		return append([]byte(nil), cached...), owner, nil
	}
	buf := make([]byte, loc.Length)
	if err := s.em.Read(loc.Extent, loc.Offset, loc.Length, buf); err != nil {
		return nil, "", fmt.Errorf("chunk: read %v: %w", loc, err)
	}
	_, key, payload, err := DecodeFrame(buf)
	if err != nil {
		s.obs.Hit("chunk.get.corrupt")
		return nil, "", fmt.Errorf("chunk: decode %v: %w", loc, err)
	}
	s.cache.Insert(loc.cacheKey(), key, payload)
	// payload aliases buf, which nothing else holds: Insert took a copy.
	return payload[:len(payload):len(payload)], key, nil
}

// InvalidateCached drops any cached entry for loc (used by the store layer
// when a locator is discovered to be stale).
func (s *Store) InvalidateCached(loc Locator) {
	s.cache.Invalidate(loc.cacheKey())
}

// Quarantine marks loc as failed-verification: subsequent reads return
// ErrQuarantined instead of serving bytes that no longer match their CRC.
// The cached copy (which may predate the rot) is dropped too — quarantine
// means "this locator is not trustworthy", not "serve the old bytes".
// Resetting the extent lifts the quarantine for its locators.
func (s *Store) Quarantine(loc Locator) {
	s.cache.Invalidate(loc.cacheKey())
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.quarantined[loc] {
		s.quarantined[loc] = true
		s.met.quarantined.Inc()
		s.obs.Hit("chunk.quarantine")
		if tr := s.obs.Tracer(); tr != nil {
			tr.Background("chunk", "quarantine "+loc.String()).End()
		}
	}
}

// IsQuarantined reports whether loc is quarantined.
func (s *Store) IsQuarantined(loc Locator) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined[loc]
}

// QuarantineCount returns the number of currently quarantined locators.
func (s *Store) QuarantineCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

// clearQuarantineLocked lifts quarantine for every locator on ext; called
// after an extent reset recycles the storage. Caller holds s.mu.
func (s *Store) clearQuarantineLocked(ext disk.ExtentID) {
	for loc := range s.quarantined {
		if loc.Extent == ext {
			delete(s.quarantined, loc)
		}
	}
}

// ActiveExtent returns the current append target, or -1 if none.
func (s *Store) ActiveExtent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// ReclaimCandidates returns data extents eligible for reclamation right now:
// owned, not active, not pinned, not already being reclaimed.
func (s *Store) ReclaimCandidates() []disk.ExtentID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []disk.ExtentID
	for _, ext := range s.em.OwnedExtents(extent.OwnerData) {
		if int(ext) == s.active || s.pins[ext] > 0 || s.reclaiming[ext] {
			continue
		}
		if s.em.Pointer(ext) == 0 {
			continue // nothing to recover
		}
		out = append(out, ext)
	}
	return out
}

// ReclaimAuto reclaims the first eligible extent, if any. It reports whether
// a reclamation ran.
func (s *Store) ReclaimAuto() (bool, error) {
	cands := s.ReclaimCandidates()
	if len(cands) == 0 {
		return false, nil
	}
	err := s.Reclaim(cands[0])
	if errors.Is(err, ErrBusy) {
		return false, nil
	}
	return err == nil, err
}
