// Package disk implements the in-memory user-space disk that backs the
// storage node during validation and examples.
//
// The paper's property-based tests run the entire ShardStore stack above an
// in-memory disk for determinism and speed (§4.1): "the implementation under
// test uses an in-memory user-space disk, but all components above the disk
// layer use their actual implementation code". This package is that disk.
//
// The disk is an array of extents, each a contiguous run of fixed-size pages.
// Writes land in a volatile write cache at page granularity; an explicit Sync
// makes cached pages durable. A crash (§5) discards an arbitrary subset of
// the cached-but-unsynced page writes — each lost page reverts to its
// previous durable content, which is exactly the behavior that makes the
// paper's bug #10 (magic-byte collision with stale data) reachable.
//
// The disk also supports the environmental failure injection of §4.4:
// transient (fail-once) and permanent IO errors, scoped per extent.
package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// Common IO errors returned by the disk. Injected failures wrap ErrInjected
// so harnesses can distinguish environment faults from logic errors.
var (
	ErrInjected     = errors.New("disk: injected IO failure")
	ErrOutOfRange   = errors.New("disk: IO beyond extent bounds")
	ErrBadExtent    = errors.New("disk: no such extent")
	ErrClosedDisk   = errors.New("disk: disk is closed")
	ErrShortRequest = errors.New("disk: zero-length IO")
)

// ExtentID names one extent on a disk. Extent 0 is reserved for the
// superblock by the layers above; the disk itself treats all extents alike.
type ExtentID uint32

// PageAddr identifies one page on the disk.
type PageAddr struct {
	Extent ExtentID
	Page   int
}

func (a PageAddr) String() string { return fmt.Sprintf("e%d/p%d", a.Extent, a.Page) }

// Config sizes a disk.
type Config struct {
	// PageSize is the crash and IO-failure granularity in bytes.
	PageSize int
	// PagesPerExtent is the extent length in pages.
	PagesPerExtent int
	// ExtentCount is the number of extents.
	ExtentCount int
	// Faults gates environmental fault injection that must stay inert on
	// clean runs (currently FaultSilentCorruption for CorruptPage). A nil
	// set disables all of it.
	Faults *faults.Set
	// Obs is the observability layer (metrics, probes, optional tracing). A nil Obs
	// gives the disk a private registry so Stats keeps working standalone.
	Obs *obs.Obs
}

// DefaultConfig returns the small geometry used throughout the validation
// harnesses: pages are deliberately tiny so that interesting multi-page
// layouts (chunks spilling onto a second page, §5) arise from small inputs.
func DefaultConfig() Config {
	return Config{PageSize: 128, PagesPerExtent: 16, ExtentCount: 32}
}

// ExtentBytes returns the extent capacity in bytes.
func (c Config) ExtentBytes() int { return c.PageSize * c.PagesPerExtent }

func (c Config) validate() error {
	if c.PageSize <= 0 || c.PagesPerExtent <= 0 || c.ExtentCount <= 0 {
		return fmt.Errorf("disk: invalid geometry %+v", c)
	}
	return nil
}

// Stats counts disk activity. It is a thin snapshot of the disk's obs
// registry counters (see internal/obs); the disk keeps no counter state of
// its own.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Syncs        uint64
	BytesRead    uint64
	BytesWritten uint64
	Crashes      uint64
	InjectedErrs uint64
	SilentRots   uint64
}

// diskMetrics holds the obs handles, resolved once at construction so the IO
// paths never touch the registry's lock.
type diskMetrics struct {
	reads        *obs.Counter
	writes       *obs.Counter
	syncs        *obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	crashes      *obs.Counter
	injectedErrs *obs.Counter
	silentRots   *obs.Counter
	readLat      *obs.Histogram
	writeLat     *obs.Histogram
	syncLat      *obs.Histogram
}

func newDiskMetrics(o *obs.Obs) diskMetrics {
	return diskMetrics{
		reads:        o.Counter("disk.reads"),
		writes:       o.Counter("disk.writes"),
		syncs:        o.Counter("disk.syncs"),
		bytesRead:    o.Counter("disk.bytes_read"),
		bytesWritten: o.Counter("disk.bytes_written"),
		crashes:      o.Counter("disk.crashes"),
		injectedErrs: o.Counter("disk.injected_errs"),
		silentRots:   o.Counter("disk.silent_rots"),
		readLat:      o.Histogram("disk.read_lat"),
		writeLat:     o.Histogram("disk.write_lat"),
		syncLat:      o.Histogram("disk.sync_lat"),
	}
}

// failMode describes injected failures for one extent.
type failMode struct {
	failOnce bool // next IO fails, then clears
	failPerm bool // every IO fails until cleared
}

// Disk is an in-memory disk. All methods are safe for concurrent use and are
// instrumented with vsync so the model checker can interleave IO.
type Disk struct {
	mu  vsync.Mutex
	cfg Config

	closed bool

	// durable holds the persistent content of every extent.
	durable [][]byte

	// cache holds volatile page images written since the last Sync, in
	// insertion order for deterministic crash enumeration.
	cache      map[PageAddr][]byte
	cacheOrder []PageAddr

	failures map[ExtentID]*failMode

	obs *obs.Obs
	met diskMetrics
}

// New creates a zero-filled disk.
func New(cfg Config) (*Disk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := cfg.Obs
	if o == nil {
		o = obs.New(nil)
	}
	d := &Disk{
		cfg:      cfg,
		durable:  make([][]byte, cfg.ExtentCount),
		cache:    make(map[PageAddr][]byte),
		failures: make(map[ExtentID]*failMode),
		obs:      o,
		met:      newDiskMetrics(o),
	}
	for i := range d.durable {
		d.durable[i] = make([]byte, cfg.ExtentBytes())
	}
	return d, nil
}

// Config returns the disk geometry.
func (d *Disk) Config() Config { return d.cfg }

// Stats returns a snapshot of the activity counters (reading the obs
// registry; each field is an atomic load).
func (d *Disk) Stats() Stats {
	return Stats{
		Reads:        d.met.reads.Value(),
		Writes:       d.met.writes.Value(),
		Syncs:        d.met.syncs.Value(),
		BytesRead:    d.met.bytesRead.Value(),
		BytesWritten: d.met.bytesWritten.Value(),
		Crashes:      d.met.crashes.Value(),
		InjectedErrs: d.met.injectedErrs.Value(),
		SilentRots:   d.met.silentRots.Value(),
	}
}

// Obs returns the disk's observability handle.
func (d *Disk) Obs() *obs.Obs { return d.obs }

// Close marks the disk closed; subsequent IO fails.
func (d *Disk) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
}

func (d *Disk) checkRange(ext ExtentID, off, n int) error {
	if d.closed {
		return ErrClosedDisk
	}
	if int(ext) >= d.cfg.ExtentCount {
		return fmt.Errorf("%w: extent %d of %d", ErrBadExtent, ext, d.cfg.ExtentCount)
	}
	if n <= 0 {
		return ErrShortRequest
	}
	if off < 0 || off+n > d.cfg.ExtentBytes() {
		return fmt.Errorf("%w: extent %d [%d,%d) cap %d", ErrOutOfRange, ext, off, off+n, d.cfg.ExtentBytes())
	}
	return nil
}

// checkFailure consumes any injected failure for ext. Caller holds d.mu.
func (d *Disk) checkFailure(ext ExtentID, op string) error {
	fm := d.failures[ext]
	if fm == nil {
		return nil
	}
	if fm.failPerm {
		d.met.injectedErrs.Inc()
		d.obs.Hit("disk.fail.permanent")
		if tr := d.obs.Tracer(); tr != nil {
			tr.Background("disk", fmt.Sprintf("fail e%d permanent:%s", ext, op)).End()
		}
		return fmt.Errorf("%w: permanent failure on extent %d during %s", ErrInjected, ext, op)
	}
	if fm.failOnce {
		fm.failOnce = false
		d.met.injectedErrs.Inc()
		d.obs.Hit("disk.fail.transient")
		if tr := d.obs.Tracer(); tr != nil {
			tr.Background("disk", fmt.Sprintf("fail e%d transient:%s", ext, op)).End()
		}
		return fmt.Errorf("%w: transient failure on extent %d during %s", ErrInjected, ext, op)
	}
	return nil
}

// InjectFailOnce makes the next IO (read or write) to ext fail.
func (d *Disk) InjectFailOnce(ext ExtentID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm := d.failures[ext]
	if fm == nil {
		fm = &failMode{}
		d.failures[ext] = fm
	}
	fm.failOnce = true
}

// InjectFailPermanent makes every IO to ext fail until ClearFailures.
func (d *Disk) InjectFailPermanent(ext ExtentID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fm := d.failures[ext]
	if fm == nil {
		fm = &failMode{}
		d.failures[ext] = fm
	}
	fm.failPerm = true
}

// ClearFailures removes all injected failure modes.
func (d *Disk) ClearFailures() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failures = make(map[ExtentID]*failMode)
}

// WriteAt writes data to extent ext at byte offset off. The write lands in
// the volatile cache; it is not durable until Sync (or until a crash happens
// to preserve it). Writes may span pages; each touched page gets a cached
// image so a crash can tear the write at page granularity. data is copied
// into those images and not retained: this is the device boundary, the one
// place the write path must copy.
func (d *Disk) WriteAt(ext ExtentID, off int, data []byte) error {
	start := d.obs.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(ext, off, len(data)); err != nil {
		return err
	}
	if err := d.checkFailure(ext, "write"); err != nil {
		return err
	}
	d.met.writes.Inc()
	d.met.bytesWritten.Add(uint64(len(data)))
	defer func() { d.met.writeLat.Observe(d.obs.Now() - start) }()

	ps := d.cfg.PageSize
	for len(data) > 0 {
		page := off / ps
		inPage := off % ps
		n := ps - inPage
		if n > len(data) {
			n = len(data)
		}
		addr := PageAddr{Extent: ext, Page: page}
		img, ok := d.cache[addr]
		if !ok {
			img = make([]byte, ps)
			copy(img, d.durable[ext][page*ps:(page+1)*ps])
			d.cache[addr] = img
			d.cacheOrder = append(d.cacheOrder, addr)
		}
		copy(img[inPage:], data[:n])
		off += n
		data = data[n:]
	}
	return nil
}

// ReadAt reads len(buf) bytes from extent ext at offset off, observing the
// volatile cache (reads see the latest write, synced or not).
func (d *Disk) ReadAt(ext ExtentID, off int, buf []byte) error {
	start := d.obs.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkRange(ext, off, len(buf)); err != nil {
		return err
	}
	if err := d.checkFailure(ext, "read"); err != nil {
		return err
	}
	d.met.reads.Inc()
	d.met.bytesRead.Add(uint64(len(buf)))
	defer func() { d.met.readLat.Observe(d.obs.Now() - start) }()

	ps := d.cfg.PageSize
	pos := 0
	for pos < len(buf) {
		cur := off + pos
		page := cur / ps
		inPage := cur % ps
		n := ps - inPage
		if n > len(buf)-pos {
			n = len(buf) - pos
		}
		if img, ok := d.cache[PageAddr{Extent: ext, Page: page}]; ok {
			copy(buf[pos:pos+n], img[inPage:inPage+n])
		} else {
			copy(buf[pos:pos+n], d.durable[ext][page*ps+inPage:page*ps+inPage+n])
		}
		pos += n
	}
	return nil
}

// TestHookPreSync, if non-nil, runs at the start of every Sync before the
// disk lock is taken. Tests use it to hold a device flush in flight and
// observe what the rest of the stack can do meanwhile (e.g. that scheduler
// reads proceed during a sync). It must be set and cleared only while no
// Sync can be running.
var TestHookPreSync func()

// Sync makes every cached page write durable. It models a full write-cache
// flush (FUA/barrier for everything outstanding).
func (d *Disk) Sync() error {
	if TestHookPreSync != nil {
		TestHookPreSync()
	}
	bg := d.obs.Tracer().Background("disk", "sync")
	start := d.obs.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer bg.End()
	if d.closed {
		return ErrClosedDisk
	}
	d.met.syncs.Inc()
	d.applyCacheLocked(func(PageAddr) bool { return true })
	d.met.syncLat.Observe(d.obs.Now() - start)
	return nil
}

// applyCacheLocked moves cached pages for which keep returns true into the
// durable image and discards the rest. Caller holds d.mu.
func (d *Disk) applyCacheLocked(keep func(PageAddr) bool) (kept, lost []PageAddr) {
	ps := d.cfg.PageSize
	for _, addr := range d.cacheOrder {
		img, ok := d.cache[addr]
		if !ok {
			continue
		}
		if keep(addr) {
			copy(d.durable[addr.Extent][addr.Page*ps:(addr.Page+1)*ps], img)
			kept = append(kept, addr)
		} else {
			lost = append(lost, addr)
		}
	}
	d.cache = make(map[PageAddr][]byte)
	d.cacheOrder = nil
	return kept, lost
}

// RotMode selects how CorruptPage mutates a page.
type RotMode int

const (
	// RotFlip flips a seed-chosen set of bits in the page (classic bit rot).
	RotFlip RotMode = iota
	// RotZero zeroes the whole page (a dropped or unmapped sector).
	RotZero
)

func (m RotMode) String() string {
	switch m {
	case RotFlip:
		return "flip"
	case RotZero:
		return "zero"
	default:
		return fmt.Sprintf("RotMode(%d)", int(m))
	}
}

// CorruptPage silently corrupts one durable page: the bytes change but no IO
// error is ever reported — exactly the failure the chunk-frame CRCs exist to
// catch. The mutation is deterministic in (mode, seed). It touches only the
// durable image; a cached (volatile, unsynced) page image is left alone, so a
// later Sync can legitimately overwrite the rot, like a fresh write to a
// rotted sector would.
//
// The whole mechanism is gated on FaultSilentCorruption: unless that switch
// is enabled in cfg.Faults, CorruptPage is a no-op returning false, keeping
// clean runs byte-for-byte identical.
func (d *Disk) CorruptPage(ext ExtentID, page int, mode RotMode, seed int64) bool {
	if !d.cfg.Faults.Enabled(faults.FaultSilentCorruption) {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || int(ext) >= d.cfg.ExtentCount || page < 0 || page >= d.cfg.PagesPerExtent {
		return false
	}
	ps := d.cfg.PageSize
	img := d.durable[ext][page*ps : (page+1)*ps]
	switch mode {
	case RotZero:
		for i := range img {
			img[i] = 0
		}
	default:
		rng := rand.New(rand.NewSource(seed))
		// At least one flipped bit; a few more scattered ones for realism.
		nbits := 1 + rng.Intn(8)
		for i := 0; i < nbits; i++ {
			img[rng.Intn(ps)] ^= 1 << uint(rng.Intn(8))
		}
	}
	d.met.silentRots.Inc()
	d.obs.Hit("disk.rot")
	if tr := d.obs.Tracer(); tr != nil {
		tr.Background("disk", fmt.Sprintf("rot e%d/p%d %s", ext, page, mode)).End()
	}
	return true
}

// DirtyPages returns the addresses of cached-but-unsynced pages in write
// order. Used by the exhaustive block-level crash enumerator (§5).
func (d *Disk) DirtyPages() []PageAddr {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]PageAddr, len(d.cacheOrder))
	copy(out, d.cacheOrder)
	return out
}

// Crash simulates a fail-stop crash: each cached-but-unsynced page write
// independently survives with probability 1/2, chosen by rng. Lost pages
// revert to their previous durable content. It returns the surviving and
// lost page addresses. The disk remains usable afterwards (it represents the
// same physical medium across the reboot).
func (d *Disk) Crash(rng *rand.Rand) (kept, lost []PageAddr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met.crashes.Inc()
	d.obs.Hit("disk.crash")
	kept, lost = d.applyCacheLocked(func(PageAddr) bool { return rng.Intn(2) == 0 })
	if tr := d.obs.Tracer(); tr != nil {
		tr.Background("disk", fmt.Sprintf("crash kept=%d lost=%d", len(kept), len(lost))).End()
	}
	// A crash also clears injected transient failures (the process restarts),
	// but permanent media failures persist.
	for ext, fm := range d.failures {
		fm.failOnce = false
		if !fm.failPerm {
			delete(d.failures, ext)
		}
	}
	return kept, lost
}

// CrashKeep is the deterministic variant of Crash used by the exhaustive
// block-level enumerator: keep decides the fate of each dirty page.
func (d *Disk) CrashKeep(keep func(PageAddr) bool) (kept, lost []PageAddr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met.crashes.Inc()
	return d.applyCacheLocked(keep)
}

// Snapshot captures the full durable + volatile state of the disk so the
// exhaustive crash enumerator can restore and retry different crash subsets.
type Snapshot struct {
	durable    [][]byte
	cache      map[PageAddr][]byte
	cacheOrder []PageAddr
}

// Snapshot returns a deep copy of the disk state.
func (d *Disk) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &Snapshot{
		durable:    make([][]byte, len(d.durable)),
		cache:      make(map[PageAddr][]byte, len(d.cache)),
		cacheOrder: append([]PageAddr(nil), d.cacheOrder...),
	}
	for i, e := range d.durable {
		s.durable[i] = append([]byte(nil), e...)
	}
	for a, img := range d.cache {
		s.cache[a] = append([]byte(nil), img...)
	}
	return s
}

// Restore resets the disk to a previously captured snapshot.
func (d *Disk) Restore(s *Snapshot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.durable = make([][]byte, len(s.durable))
	for i, e := range s.durable {
		d.durable[i] = append([]byte(nil), e...)
	}
	d.cache = make(map[PageAddr][]byte, len(s.cache))
	for a, img := range s.cache {
		d.cache[a] = append([]byte(nil), img...)
	}
	d.cacheOrder = append([]PageAddr(nil), s.cacheOrder...)
	d.closed = false
}

// DurableEqual reports whether the durable images of two disks are identical.
// Test helper for crash-state reasoning.
func DurableEqual(a, b *Disk) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(a.durable) != len(b.durable) {
		return false
	}
	for i := range a.durable {
		if string(a.durable[i]) != string(b.durable[i]) {
			return false
		}
	}
	return true
}

// DirtyPageCount returns the number of cached-but-unsynced pages.
func (d *Disk) DirtyPageCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cacheOrder)
}

// SortPageAddrs orders addresses by (extent, page); helper for stable output.
func SortPageAddrs(addrs []PageAddr) {
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].Extent != addrs[j].Extent {
			return addrs[i].Extent < addrs[j].Extent
		}
		return addrs[i].Page < addrs[j].Page
	})
}
