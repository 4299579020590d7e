package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// Device-cost model: the disk is an in-memory simulator, so wall-clock time
// carries no device time. device_us_per_op prices the counted IO instead,
// with the constants BENCH_PR6/BENCH_PR7 used for their sleep hooks.
const (
	devReadUs  = 20.0  // per disk.ReadAt
	devWriteUs = 20.0  // per disk.WriteAt
	devSyncUs  = 300.0 // per disk.Sync
	devKiBUs   = 0.5   // per KiB transferred, either direction
)

// Maintenance cadence, in foreground work rather than time so that counts
// repeat run to run.
const (
	tickBytes   = 256 << 10 // user bytes put between ticks
	tickOps     = 1024      // foreground ops between ticks
	minWritable = 4         // below this many writable extents a tick sweeps
)

// nodeConfig is node_4k, the geometry cmd/shardstore serves with. A nil o
// gives the node a private registry on the logical clock: counters count and
// no hot path reads the wall clock.
func nodeConfig(seed int64, cacheCap int, o *obs.Obs) store.Config {
	return store.Config{
		Seed:               seed,
		Disk:               disk.Config{PageSize: 4096, PagesPerExtent: 256, ExtentCount: 64},
		MaxMemEntries:      128,
		AutoFlushThreshold: 64,
		Replicas:           1,
		CacheCapacity:      cacheCap,
		Obs:                o,
	}
}

// tracedObs is the registry a traced pass hands the node: wall clock, so the
// registry's latency histograms mean something, plus the request tracer.
func tracedObs() *obs.Obs {
	return obs.New(obs.NewWallClock()).WithSpans(4096, 0)
}

// maint runs the maintenance tick: cmd/shardstore's loop body plus one
// compaction step, exclusive with foreground ops.
type maint struct {
	stores      []*store.Store
	rec         *recorder
	opsSince    int
	bytesSince  int
	ticks       int64
	sweeps      int64
	busy        time.Duration
	writableMin int
}

func newMaint(stores []*store.Store, rec *recorder) *maint {
	return &maint{stores: stores, rec: rec, writableMin: 1 << 30}
}

// due accounts foreground work and reports whether a tick should run now.
func (m *maint) due(ops, putBytes int) bool {
	m.opsSince += ops
	m.bytesSince += putBytes
	if m.opsSince < tickOps && m.bytesSince < tickBytes {
		return false
	}
	m.opsSince, m.bytesSince = 0, 0
	return true
}

// tickSteps is the body of cmd/shardstore's maintenance loop, in its order,
// then one compaction step.
var tickSteps = []struct {
	span spanName
	call func(*store.Store)
}{
	{spLsmFlush, func(st *store.Store) { _, _ = st.FlushIndex() }},
	{spExtentFlush, func(st *store.Store) { _, _ = st.FlushSuperblock() }},
	{spChunkReclaim, func(st *store.Store) { _, _ = st.ReclaimAuto() }},
	{spSchedStep, func(st *store.Store) { _ = st.SchedStep() }},
	{spDiskSync, func(st *store.Store) { _ = st.SchedSync() }},
	{spCompact, func(st *store.Store) { _, _ = st.CompactStep() }},
}

// tick discards the maintenance calls' errors exactly as the server's loop
// does; what goes wrong there shows in chunk.reclaim_aborts, compact.aborts
// and, if space runs out, in failed foreground puts.
func (m *maint) tick() {
	t0 := time.Now()
	root := m.rec.start(spTick, 0, 0)
	for _, st := range m.stores {
		for _, step := range tickSteps {
			id := m.rec.start(step.span, root, 0)
			step.call(st)
			m.rec.finish(id)
		}
		w := writable(st)
		if w < minWritable {
			// The shipped victim policy (lowest-numbered candidate) wedges the
			// disk without this bounded pass, the one putWithGC makes.
			id := m.rec.start(spChunkReclaim, root, 0)
			for _, ext := range st.Chunks().ReclaimCandidates() {
				_ = st.Reclaim(ext)
			}
			m.rec.finish(id)
			m.sweeps++
		}
		if w < m.writableMin {
			m.writableMin = w
		}
	}
	m.rec.finish(root)
	m.ticks++
	m.busy += time.Since(t0)
}

// writable counts the extents a put can still land on without reclamation.
func writable(st *store.Store) int {
	em := st.Extents()
	n := em.FreeCount()
	for _, e := range em.OwnedExtents(extent.OwnerData) {
		if em.Pointer(e) == 0 {
			n++
		}
	}
	return n
}

// usedBytes sums the write pointers of every extent that is not free.
func usedBytes(st *store.Store) int64 {
	em := st.Extents()
	var n int64
	for e := 0; e < em.ExtentCount(); e++ {
		if em.OwnerOf(disk.ExtentID(e)) != extent.OwnerFree {
			n += int64(em.Pointer(disk.ExtentID(e)))
		}
	}
	return n
}

// quiesce settles a freshly loaded node: everything durable, level shape
// within policy.
func quiesce(st *store.Store) error {
	if err := st.Pump(); err != nil {
		return fmt.Errorf("quiesce pump: %w", err)
	}
	if _, err := st.CompactQuiesce(64); err != nil {
		return fmt.Errorf("quiesce compaction: %w", err)
	}
	if err := st.Pump(); err != nil {
		return fmt.Errorf("quiesce pump: %w", err)
	}
	return nil
}

// --- values and the shadow map ---

// fillValue derives a value from (key, version): an 8-byte header naming
// both, then a xorshift stream seeded by them, so any read is checkable from
// the header alone.
func fillValue(buf []byte, key, ver uint32) {
	binary.LittleEndian.PutUint32(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[4:], ver)
	x := (uint64(key)<<32|uint64(ver))*0x9E3779B97F4A7C15 + 1
	i := 8
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> (8 * uint(i&7)))
	}
}

// shadow is the driver's model of the key space: the version each key holds
// and whether it is live. Keys sort in index order.
type shadow struct {
	keys    []string
	ver     []uint32
	live    []bool
	valSize int
	scratch []byte
}

func newShadow(n, valSize int) *shadow {
	s := &shadow{
		keys:    make([]string, n),
		ver:     make([]uint32, n),
		live:    make([]bool, n),
		valSize: valSize,
		scratch: make([]byte, valSize),
	}
	for i := range s.keys {
		s.keys[i] = keyName(i)
	}
	return s
}

// keyName is key i; names sort in index order.
func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

// versionOf checks that got is a well-formed value of key k and returns the
// version it carries.
func (s *shadow) versionOf(k int, got []byte) (uint32, error) {
	if len(got) != s.valSize {
		return 0, fmt.Errorf("%s: %d bytes, want %d", s.keys[k], len(got), s.valSize)
	}
	if hk := binary.LittleEndian.Uint32(got); hk != uint32(k) {
		return 0, fmt.Errorf("%s: value belongs to key %d", s.keys[k], hk)
	}
	ver := binary.LittleEndian.Uint32(got[4:])
	fillValue(s.scratch, uint32(k), ver)
	if !bytes.Equal(got, s.scratch) {
		return 0, fmt.Errorf("%s: bytes differ from version %d", s.keys[k], ver)
	}
	return ver, nil
}

// check is versionOf for a single client: the version must be the shadow's.
func (s *shadow) check(k int, got []byte) error {
	ver, err := s.versionOf(k, got)
	if err == nil && ver != s.ver[k] {
		err = fmt.Errorf("%s: version %d, want %d", s.keys[k], ver, s.ver[k])
	}
	return err
}

func (s *shadow) liveBytes() int64 {
	var n int64
	for _, l := range s.live {
		if l {
			n += int64(s.valSize)
		}
	}
	return n
}

// zipfKeys draws key indexes from a scrambled Zipf(1.1): rank r maps to a
// fixed random key so hot keys are spread over the key space.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func newZipfKeys(r *rand.Rand, n int) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (z *zipfKeys) next() int { return z.perm[z.z.Uint64()] }

// --- counters ---

// snapshot merges the registries of every store (and the rpc server's).
func snapshot(stores []*store.Store, extra ...*obs.Obs) obs.Snapshot {
	var s obs.Snapshot
	for _, st := range stores {
		s.Merge(st.Obs().Snapshot())
	}
	for _, o := range extra {
		s.Merge(o.Snapshot())
	}
	return s
}

// delta reads differences between two snapshots of the same registries.
type delta struct{ before, after obs.Snapshot }

func (d delta) c(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// histMean is the mean of the observations a histogram took between the two
// snapshots, and their number.
func (d delta) histMean(name string) (float64, int64) {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	n := a.Count - b.Count
	if n == 0 {
		return 0, 0
	}
	return float64(a.Sum-b.Sum) / float64(n), int64(n)
}

func (d delta) deviceUs() float64 {
	return devReadUs*d.c("disk.reads") + devWriteUs*d.c("disk.writes") + devSyncUs*d.c("disk.syncs") +
		devKiBUs*(d.c("disk.bytes_read")+d.c("disk.bytes_written"))/1024
}

// memDelta is what the Go runtime did over a timed phase.
type memDelta struct {
	mallocs, allocBytes, gcCycles, gcPauseNs uint64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// heapLive is the heap still reachable after a full collection; the second
// cycle frees what the first one's finalizers and sweeps released.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
