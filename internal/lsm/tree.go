// Package lsm implements ShardStore's index: a log-structured merge tree
// mapping shard identifiers to values (chunk locator lists), itself stored
// as chunks on disk (§2.1, WiscKey-style). The in-memory memtable absorbs
// writes; Flush serializes it into a sorted level-0 run chunk and publishes a
// new manifest generation naming it; compaction (ApplyPlan, driven by
// internal/compact) merges runs into deeper levels. Because the tree's own
// chunks live on reclaimable extents, the tree also implements the
// reclamation resolver for index-run chunks.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// ErrNotFound is returned by Get for absent (or deleted) keys. The reference
// model returns the identical error so conformance checks compare equal.
var ErrNotFound = errors.New("index: key not found")

// Index is the interface shared by the production LSM tree and its reference
// model (§3.2). Writing unit tests against Index lets the reference model
// double as the mock implementation.
type Index interface {
	// Put records key=value. The returned dependency becomes persistent once
	// the entry is durable (for the LSM tree: run chunk + metadata + their
	// superblock updates). waits orders the entry after other writes — a
	// shard put passes its data chunks' dependency here (Fig 2).
	Put(key string, value []byte, waits ...*dep.Dependency) (*dep.Dependency, error)
	// Get returns the value for key or ErrNotFound.
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string, waits ...*dep.Dependency) (*dep.Dependency, error)
	// Flush persists buffered entries.
	Flush() (*dep.Dependency, error)
	// Compact merges on-disk structures; a no-op for the model.
	Compact() error
}

// ChunkStore is what the tree needs from the chunk layer. The production
// implementation is chunk.Store; unit tests substitute the reference model.
type ChunkStore interface {
	Put(tag chunk.Tag, key string, payload []byte, waits ...*dep.Dependency) (chunk.Locator, *dep.Dependency, func(), error)
	Get(loc chunk.Locator) ([]byte, error)
}

// Config tunes the tree.
type Config struct {
	// MaxRuns triggers an automatic compaction when a flush would exceed it.
	MaxRuns int
	// MaxMemEntries flushes the memtable automatically when it grows past
	// this; zero disables (harnesses flush explicitly for determinism).
	MaxMemEntries int
	// ResetHappened reports whether any extent was reset this session — the
	// trigger state for seeded bug #3 in the shutdown path.
	ResetHappened func() bool
	// Obs is the observability registry for metrics and tracing. Nil gives
	// the tree a private registry.
	Obs *obs.Obs
}

// treeMetrics holds the obs handles, resolved once at construction.
type treeMetrics struct {
	flushes     *obs.Counter
	compactions *obs.Counter
	runLoads    *obs.Counter
	gets        *obs.Counter
	runsProbed  *obs.Counter
	scans       *obs.Counter
	scanEntries *obs.Counter
	memEntries  *obs.Gauge
	runCount    *obs.Gauge
	levels      *obs.Gauge
	flushDur    *obs.Histogram
	compactDur  *obs.Histogram
	scanLat     *obs.Histogram
}

func newTreeMetrics(o *obs.Obs) treeMetrics {
	return treeMetrics{
		flushes:     o.Counter("lsm.flushes"),
		compactions: o.Counter("lsm.compactions"),
		runLoads:    o.Counter("lsm.run_loads"),
		gets:        o.Counter("lsm.gets"),
		runsProbed:  o.Counter("lsm.runs_probed"),
		scans:       o.Counter("lsm.scans"),
		scanEntries: o.Counter("lsm.scan_entries"),
		memEntries:  o.Gauge("lsm.mem_entries"),
		runCount:    o.Gauge("lsm.runs"),
		levels:      o.Gauge("lsm.levels"),
		flushDur:    o.Histogram("lsm.flush_dur"),
		compactDur:  o.Histogram("lsm.compact_dur"),
		scanLat:     o.Histogram("lsm.scan_lat"),
	}
}

// DefaultMaxRuns bounds the run list so metadata records stay small.
const DefaultMaxRuns = 6

type memEntry struct {
	value     []byte
	tombstone bool
	// wait orders this entry's run chunk after the writes the entry refers
	// to (its shard data chunks, Fig 2). Waits are per entry: when an entry
	// is overwritten or relocated, the superseded wait goes with it —
	// keeping a flat accumulated list would leave the flush waiting on
	// dependencies that an extent reset has since rerouted, which can tie
	// the flush and the reset into a cycle.
	wait *dep.Dependency
}

type runRef struct {
	seq uint64
	loc chunk.Locator
	// level is the run's compaction level: 0 for raw flush output (runs
	// overlap; newest first in t.runs), 1..MaxLevels for merged runs (one
	// per level, ascending after the L0 block). Slice order in t.runs is
	// always read-precedence order, so Get probes newest data first.
	level int
}

// Tree is the production LSM index.
type Tree struct {
	mu   vsync.Mutex
	cs   ChunkStore
	ms   MetaStore
	futs FutureFactory
	cfg  Config
	bugs *faults.Set
	obs  *obs.Obs
	met  treeMetrics

	mem    map[string]memEntry
	future *dep.Dependency // pending-memtable dependency, bound at flush
	// flushing holds the memtable generation currently being written to a
	// run chunk. It stays visible to reads until the run is registered, so
	// a concurrent Get cannot miss entries mid-flush, and a concurrent Put
	// goes into the fresh memtable instead of being wiped by the flush — a
	// lost-update race this very repository's Fig 4 harness caught.
	flushing    map[string]memEntry
	flushMu     vsync.Mutex // serializes flushes (one memtable generation in flight)
	compactMu   vsync.Mutex // serializes compactions (flushMu may be held while taking it, never the reverse)
	runs        []runRef    // read-precedence order: L0 newest first, then ascending levels
	runSeq      uint64
	manifestGen uint64
	// staleRuns is the pre-swap run list captured at the last leveled swap,
	// recorded only while FaultScanTornLevelSwap is armed: the seeded defect
	// composes a scan view from these deep levels plus the current L0.
	staleRuns []runRef
	runCache  map[chunk.Locator][]Entry
	lastFlush *dep.Dependency
}

// FutureFactory creates unbound dependencies; satisfied by *dep.Scheduler.
type FutureFactory interface {
	Future() *dep.Dependency
	Bind(future, real *dep.Dependency)
}

// NewTree opens (or recovers) a tree whose runs are listed in ms. A fresh
// metadata extent yields an empty tree.
func NewTree(cs ChunkStore, ms MetaStore, futs FutureFactory, cfg Config, bugs *faults.Set) (*Tree, error) {
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = DefaultMaxRuns
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(nil)
	}
	t := &Tree{
		cs:       cs,
		ms:       ms,
		futs:     futs,
		cfg:      cfg,
		bugs:     bugs,
		obs:      o,
		met:      newTreeMetrics(o),
		mem:      make(map[string]memEntry),
		runCache: make(map[chunk.Locator][]Entry),
	}
	payload, err := ms.ReadLatest()
	if err != nil {
		return nil, err
	}
	if payload != nil {
		runs, gen, err := decodeManifest(payload)
		if err != nil {
			return nil, err
		}
		t.runs = runs
		t.manifestGen = gen
		for _, r := range runs {
			if r.seq >= t.runSeq {
				t.runSeq = r.seq + 1
			}
		}
		t.updateRunMetricsLocked()
		t.obs.Hit("lsm.recovered")
	}
	return t, nil
}

// MaxMetaPayload returns the metadata payload bound for the given run limit,
// used to size the metadata slots. The bound covers MaxRuns level-0 runs
// (plus one of transient headroom while a flush races a compaction abort)
// and one merged run per level 1..MaxLevels.
func MaxMetaPayload(maxRuns int) int {
	if maxRuns <= 0 {
		maxRuns = DefaultMaxRuns
	}
	return 16 + (maxRuns+MaxLevels+1)*manifestRunLen
}

// updateRunMetricsLocked refreshes the run-shape gauges; requires t.mu.
func (t *Tree) updateRunMetricsLocked() {
	t.met.runCount.Set(int64(len(t.runs)))
	seen := make(map[int]bool, len(t.runs))
	for _, r := range t.runs {
		seen[r.level] = true
	}
	t.met.levels.Set(int64(len(seen)))
}

// decodeRunList parses the v1 (pre-leveled) flat run list; kept so recovery
// accepts manifests written before the v2 generation format.
func decodeRunList(buf []byte) ([]runRef, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("lsm: short run list")
	}
	count := int(binary.BigEndian.Uint32(buf[:4]))
	rest := buf[4:]
	if count < 0 || count > len(buf) {
		return nil, fmt.Errorf("lsm: implausible run count %d", count)
	}
	runs := make([]runRef, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("lsm: truncated run list")
		}
		seq := binary.BigEndian.Uint64(rest[:8])
		loc, r2, err := chunk.DecodeLocator(rest[8:])
		if err != nil {
			return nil, err
		}
		rest = r2
		runs = append(runs, runRef{seq: seq, loc: loc})
	}
	return runs, nil
}

// Put implements Index.
func (t *Tree) Put(key string, value []byte, waits ...*dep.Dependency) (*dep.Dependency, error) {
	t.mu.Lock()
	t.mem[key] = memEntry{value: append([]byte(nil), value...), wait: dep.All(waits...)}
	if t.future == nil {
		t.future = t.futs.Future()
	}
	fut := t.future
	needFlush := t.cfg.MaxMemEntries > 0 && len(t.mem) >= t.cfg.MaxMemEntries
	t.met.memEntries.Set(int64(len(t.mem)))
	t.mu.Unlock()
	if needFlush {
		if _, err := t.Flush(); err != nil {
			return fut, err
		}
	}
	return fut, nil
}

// Delete implements Index: it buffers a tombstone.
func (t *Tree) Delete(key string, waits ...*dep.Dependency) (*dep.Dependency, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mem[key] = memEntry{tombstone: true, wait: dep.All(waits...)}
	if t.future == nil {
		t.future = t.futs.Future()
	}
	t.met.memEntries.Set(int64(len(t.mem)))
	return t.future, nil
}

// Get implements Index. The probe order is t.runs' slice order — newest
// manifest data first — so when two generations' chunks are momentarily both
// live (a compaction just published, reclamation has not swept the inputs),
// reads see only the newest generation. lsm.runs_probed over lsm.gets is the
// read-amplification ratio leveled compaction exists to bound.
func (t *Tree) Get(key string) ([]byte, error) {
	t.met.gets.Inc()
	for attempt := 1; ; attempt++ {
		t.mu.Lock()
		if e, ok := t.mem[key]; ok {
			t.mu.Unlock()
			if e.tombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), e.value...), nil
		}
		if e, ok := t.flushing[key]; ok {
			t.mu.Unlock()
			if e.tombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), e.value...), nil
		}
		runs := append([]runRef(nil), t.runs...)
		gen := t.manifestGen
		t.mu.Unlock()

		v, err := t.getFromRuns(key, runs)
		if err == nil || err == ErrNotFound || attempt == maxSnapshotAttempts || t.ManifestGen() == gen {
			return v, err
		}
		// A run of the snapshot vanished mid-read: a compaction retired it
		// and reclamation recycled its extent, so loadRun's refresh by
		// sequence number finds nothing. The generation moved; read the new
		// one, as Scan does.
		t.obs.Hit("lsm.get.gen_retry")
	}
}

// getFromRuns probes one snapshot of the run list, newest first.
func (t *Tree) getFromRuns(key string, runs []runRef) ([]byte, error) {
	for _, r := range runs {
		t.met.runsProbed.Inc()
		entries, err := t.loadRun(r)
		if err != nil {
			return nil, err
		}
		if e, ok := searchRun(entries, key); ok {
			if e.Tombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), e.Value...), nil
		}
	}
	return nil, ErrNotFound
}

// runKeyFor names the chunk holding run seq; chunk frames carry this key,
// which is what lets a reader detect that a locator went stale.
func runKeyFor(seq uint64) string { return fmt.Sprintf("run-%016x", seq) }

// loadRun fetches and decodes one run, memoizing the result.
//
// A run locator can go stale concurrently: reclamation relocates run chunks
// and recycles their extents, so by the time the read lands, the physical
// location may hold a different chunk entirely. The read is validated two
// ways — the frame's owner key must match the run's name, and the payload
// must decode as a run — and on any mismatch the current locator for the
// same run sequence is fetched from the metadata and the read retried.
func (t *Tree) loadRun(ref runRef) ([]Entry, error) {
	loc := ref.loc
	want := runKeyFor(ref.seq)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		t.mu.Lock()
		if entries, ok := t.runCache[loc]; ok {
			t.mu.Unlock()
			return entries, nil
		}
		t.mu.Unlock()
		t.met.runLoads.Inc()
		payload, owner, err := t.getRunChunk(loc)
		if err == nil && (owner == "" || owner == want) {
			entries, derr := decodeRun(payload)
			if derr == nil {
				t.mu.Lock()
				t.runCache[loc] = entries
				t.mu.Unlock()
				return entries, nil
			}
			lastErr = fmt.Errorf("lsm: run %v: %w", loc, derr)
		} else if err != nil {
			lastErr = fmt.Errorf("lsm: load run %v: %w", loc, err)
		} else {
			lastErr = fmt.Errorf("lsm: run %v owned by %q, want %q (stale locator)", loc, owner, want)
		}
		// Refresh the locator: relocation may have moved the run.
		t.mu.Lock()
		fresh := loc
		for _, r := range t.runs {
			if r.seq == ref.seq {
				fresh = r.loc
				break
			}
		}
		t.mu.Unlock()
		if fresh == loc {
			break // nothing moved; the failure is real
		}
		loc = fresh
	}
	return nil, lastErr
}

// runChunkGetter is implemented by chunk stores that expose the owning key
// (the production store); mocks fall back to plain Get.
type runChunkGetter interface {
	GetWithKey(chunk.Locator) ([]byte, string, error)
}

func (t *Tree) getRunChunk(loc chunk.Locator) ([]byte, string, error) {
	if g, ok := t.cs.(runChunkGetter); ok {
		return g.GetWithKey(loc)
	}
	payload, err := t.cs.Get(loc)
	return payload, "", err
}

// Flush implements Index: it serializes the memtable into a new run chunk,
// then writes a metadata record pointing at it — exactly the index-entry and
// LSM-metadata writes of Fig 2, with the metadata ordered after the run and
// the run ordered after the callers' data chunks.
func (t *Tree) Flush() (*dep.Dependency, error) {
	return t.flush(false)
}

func (t *Tree) flush(skipMeta bool) (*dep.Dependency, error) {
	start := t.obs.Now()
	// Serialize flushes (and compactions) so only one memtable generation is
	// in flight at a time.
	t.flushMu.Lock()
	defer t.flushMu.Unlock()

	t.mu.Lock()
	if len(t.mem) == 0 {
		last := t.lastFlush
		t.mu.Unlock()
		if last == nil {
			return dep.Resolved(), nil
		}
		return last, nil
	}
	// Swap the memtable: the generation being flushed stays readable via
	// t.flushing; concurrent Puts land in the fresh memtable.
	gen := t.mem
	t.mem = make(map[string]memEntry)
	t.flushing = gen
	future := t.future
	t.future = nil
	entries := make([]Entry, 0, len(gen))
	for k, e := range gen {
		entries = append(entries, Entry{Key: k, Value: e.value, Tombstone: e.tombstone})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	// Collect the flush dependencies in sorted-key order, not memtable
	// iteration order: the memtable is a map, and Go randomizes map order
	// per run, so building waits inside the range above would leak that
	// randomization into the dependency graph and break bit-identical
	// replay of a failing case.
	var waits []*dep.Dependency
	for _, ent := range entries {
		if w := gen[ent.Key].wait; w != nil && w != dep.Resolved() {
			waits = append(waits, w)
		}
	}
	seq := t.runSeq
	t.runSeq++
	l0 := 0
	for _, r := range t.runs {
		if r.level == 0 {
			l0++
		}
	}
	needCompact := l0+1 > t.cfg.MaxRuns
	t.met.memEntries.Set(0)
	t.mu.Unlock()

	// restore puts the un-flushed generation back on the error path (keys
	// overwritten since keep their newer value).
	restore := func() {
		t.mu.Lock()
		for k, e := range gen {
			if _, exists := t.mem[k]; !exists {
				t.mem[k] = e
			}
		}
		t.flushing = nil
		if future != nil && t.future == nil {
			t.future = future
		}
		t.mu.Unlock()
	}

	if needCompact {
		// Push the whole L0 block (and the resident L1 run, if any) into L1
		// before registering the new run, so L0 stays bounded by MaxRuns.
		if err := t.compactL0(); err != nil {
			restore()
			return nil, err
		}
	}

	payload := encodeRun(entries)
	runKey := runKeyFor(seq)
	loc, cdep, release, err := t.cs.Put(chunk.TagIndexRun, runKey, payload, waits...)
	if err != nil {
		restore()
		return nil, err
	}
	defer release()

	// Register the run and enqueue the metadata record atomically (under
	// t.mu): capturing the run list and assigning the record's generation
	// must not interleave with a concurrent compaction or relocation, or a
	// higher-generation record could carry an older run list.
	t.mu.Lock()
	t.runs = append([]runRef{{seq: seq, loc: loc, level: 0}}, t.runs...)
	t.runCache[loc] = entries
	t.flushing = nil // the run is registered; reads find it there
	var flushDep *dep.Dependency
	var mdErr error
	if skipMeta {
		// Seeded bug #3: the shutdown path skipped the metadata record when
		// an extent had been reset this session, so the freshly flushed run
		// is forgotten by the next recovery even though every dependency
		// reported persistent.
		t.obs.Hit("lsm.bug3.meta_skipped")
		flushDep = cdep
	} else {
		var mdep *dep.Dependency
		mdep, mdErr = t.stageManifestLocked(cdep)
		if mdErr == nil {
			flushDep = cdep.And(mdep)
		}
	}
	t.mu.Unlock()
	if mdErr != nil {
		return nil, mdErr
	}

	t.mu.Lock()
	if future != nil {
		t.futs.Bind(future, flushDep)
	}
	t.lastFlush = flushDep
	t.updateRunMetricsLocked()
	t.mu.Unlock()
	t.obs.Hit("lsm.flush")
	t.met.flushes.Inc()
	t.met.flushDur.Observe(t.obs.Now() - start)
	return flushDep, nil
}

// Shutdown flushes the memtable for a clean shutdown.
func (t *Tree) Shutdown() (*dep.Dependency, error) {
	skipMeta := false
	if t.bugs.Enabled(faults.Bug3ShutdownMetadataSkip) && t.cfg.ResetHappened != nil && t.cfg.ResetHappened() {
		skipMeta = true
	}
	return t.flush(skipMeta)
}

// pruneRunCacheLocked drops cache entries for runs no manifest names;
// requires t.mu.
func (t *Tree) pruneRunCacheLocked() {
	live := make(map[chunk.Locator]bool, len(t.runs))
	for _, r := range t.runs {
		live[r.loc] = true
	}
	for l := range t.runCache {
		if !live[l] {
			delete(t.runCache, l)
		}
	}
}

// RunLocs returns the locators of the current on-disk runs (diagnostics).
func (t *Tree) RunLocs() []chunk.Locator {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]chunk.Locator, 0, len(t.runs))
	for _, r := range t.runs {
		out = append(out, r.loc)
	}
	return out
}

// RunCount returns the number of on-disk runs.
func (t *Tree) RunCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs)
}

// MemLen returns the number of buffered memtable entries.
func (t *Tree) MemLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.mem)
}

// PendingFlush reports whether unflushed memtable entries exist.
func (t *Tree) PendingFlush() bool { return t.MemLen() > 0 }

// --- Reclamation resolver for index-run chunks (§2.1) ---

// RunResolver adapts the tree to chunk.Resolver for TagIndexRun chunks: the
// reverse lookup consults the metadata run list instead of the index.
type RunResolver struct{ Tree *Tree }

// ChunkLive reports whether loc backs a current run.
func (r RunResolver) ChunkLive(key string, loc chunk.Locator) bool {
	t := r.Tree
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, run := range t.runs {
		if run.loc == loc {
			return true
		}
	}
	return false
}

// RelocateChunk repoints the metadata at an evacuated run chunk.
func (r RunResolver) RelocateChunk(key string, old, newLoc chunk.Locator, newDep *dep.Dependency) (bool, *dep.Dependency, error) {
	t := r.Tree
	t.mu.Lock()
	found := false
	for i := range t.runs {
		if t.runs[i].loc == old {
			t.runs[i].loc = newLoc
			found = true
			break
		}
	}
	if !found {
		t.mu.Unlock()
		return false, nil, nil
	}
	if entries, ok := t.runCache[old]; ok {
		t.runCache[newLoc] = entries
		delete(t.runCache, old)
	}
	mdep, err := t.stageManifestLocked(newDep)
	t.mu.Unlock()
	if err != nil {
		return false, nil, err
	}
	t.obs.Hit("lsm.run_relocated")
	return true, mdep, nil
}

// SyncReferences implements chunk.Resolver. Run chunks become garbage when a
// newer metadata record supersedes them (compaction, relocation); the extent
// reset that destroys a garbage run must therefore wait for the current
// metadata record — the chained LastDep covers every earlier record and run.
func (r RunResolver) SyncReferences() (*dep.Dependency, error) {
	return r.Tree.ms.LastDep(), nil
}

var _ chunk.Resolver = RunResolver{}
var _ Index = (*Tree)(nil)
