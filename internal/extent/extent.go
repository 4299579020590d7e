// Package extent manages the disk's extents: append-only write pointers,
// extent ownership and allocation, extent reset, and the superblock that
// persists all of this (§2.1–2.2 of the paper).
//
// ShardStore tracks an in-memory soft write pointer per extent, translates
// appends into disk writes, and persists the pointers in a superblock
// (extent 0) flushed on a cadence. Ownership (which subsystem an extent
// belongs to) is persisted the same way. Appends, resets, and allocations
// all participate in the soft-updates dependency graph:
//
//   - every append's returned dependency covers both the data write and the
//     superblock record carrying the new pointer (bug #8 site);
//   - appends to a freshly allocated extent wait for the ownership record
//     (bug #6 site);
//   - appends to a freshly reset extent wait for the reset to be durable,
//     which in turn waits for the caller-supplied evacuation dependencies
//     (bug #7 site) — this is what makes reclamation crash consistent.
package extent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// Owner identifies the subsystem an extent belongs to.
type Owner uint8

const (
	// OwnerFree marks an unallocated extent. Its contents are ignored by
	// recovery and it may be handed out by Allocate.
	OwnerFree Owner = iota
	// OwnerSuperblock is extent 0, reserved for superblock records.
	OwnerSuperblock
	// OwnerMeta is the reserved LSM-tree metadata extent.
	OwnerMeta
	// OwnerData holds chunks (shard data and LSM run chunks alike).
	OwnerData
)

func (o Owner) String() string {
	switch o {
	case OwnerFree:
		return "free"
	case OwnerSuperblock:
		return "superblock"
	case OwnerMeta:
		return "meta"
	case OwnerData:
		return "data"
	default:
		return fmt.Sprintf("Owner(%d)", uint8(o))
	}
}

// Well-known extents.
const (
	SuperblockExtent disk.ExtentID = 0
	MetaExtent       disk.ExtentID = 1
)

var (
	// ErrExtentFull is returned when an append does not fit.
	ErrExtentFull = errors.New("extent: append exceeds extent capacity")
	// ErrNoFreeExtent is returned when allocation finds no free extent.
	ErrNoFreeExtent = errors.New("extent: no free extents")
	// ErrNotOwned is returned for IO against an extent the caller does not own.
	ErrNotOwned = errors.New("extent: extent not owned by caller")
	// ErrBeyondPointer is returned for reads past the soft write pointer.
	ErrBeyondPointer = errors.New("extent: read beyond write pointer")
)

// The superblock holds two independent record streams in one extent: pointer
// records (the soft write pointer snapshot) and ownership records (the
// extent ownership snapshot). They are flushed separately — which is exactly
// why an append to a freshly allocated extent must carry a dependency on the
// ownership record (the bug #6 gate): the pointer record covering the append
// can be durable while the ownership record is not.
const (
	ptrRecordMagic uint32 = 0x53425031 // "SBP1"
	ownRecordMagic uint32 = 0x53424F31 // "SBO1"
	headerSize            = 4 + 8 + 4  // magic, gen, count
	entrySize             = 4 + 4 + 1  // extent, pointer/owner, pad
	trailerSize           = 4          // crc32
)

// Manager owns the extent table for one disk.
type Manager struct {
	mu    vsync.Mutex
	sched *dep.Scheduler
	cfg   disk.Config
	obs   *obs.Obs // the scheduler's, for coverage probes
	bugs  *faults.Set

	soft  []int   // in-memory soft write pointer per extent
	owner []Owner // in-memory ownership per extent

	// gates holds, per extent, dependencies that must persist before new
	// appends to the extent are issued: the ownership record for a fresh
	// allocation, or the reset record for a reset extent.
	gates map[disk.ExtentID]*dep.Dependency
	// resetGates tracks the reset-record component of gates separately:
	// evacuations must avoid extents whose reset is not yet durable, or the
	// reset's wait-chain could cycle through its own gate (reset A waits on
	// data evacuated onto reset B, whose reset waits on data evacuated onto
	// A, each append gated on the other's reset record).
	resetGates map[disk.ExtentID]*dep.Dependency

	// Superblock staging: pointer and ownership mutations accumulate and are
	// persisted by the next Flush, each stream in its own record.
	stagedPtr   bool
	stagedOwn   bool
	stagedWaits []*dep.Dependency // attached to the next pointer record
	futurePtr   *dep.Dependency   // bound to the next pointer record at Flush
	futureOwn   *dep.Dependency   // bound to the next ownership record at Flush
	genPtr      uint64
	genOwn      uint64
	// The superblock extent is split into two slot regions so the
	// high-frequency pointer stream can never overwrite the newest
	// ownership record: ownership records cycle through the first
	// ownSlots slots, pointer records through the rest.
	ownSlots int
	sbOffOwn int // next ownership record offset
	sbOffPtr int // next pointer record offset

	// recovered marks managers constructed by Recover — the bug #6 trigger
	// condition ("incorrect after a reboot").
	recovered bool

	// resetHappened records whether any extent was reset this session — the
	// bug #3 trigger condition in the LSM shutdown path.
	resetHappened bool

	// Staging token pool (bug #12 site). Every staged mutation holds a token
	// until the next flush writes the record. The flusher itself must not
	// compete for a token; with bug #12 enabled it does, which deadlocks when
	// stagers exhaust the pool.
	poolCap  int
	poolUsed int
	poolCond *vsync.Cond

	// autoFlush flushes the superblock once this many mutations are staged
	// (zero disables).
	autoFlush int

	// lastPtrRec / lastOwnRec chain record writes so at most one record per
	// stream is in flight (issued but unsynced) at any time. Without this, a
	// wrapped slot reuse could tear the only durable record of the stream:
	// the crash applies some pages of the new write over the old record,
	// invalidating both.
	lastPtrRec *dep.Dependency
	lastOwnRec *dep.Dependency

	lastRecord *dep.Dependency
}

// Config tunes the manager.
type Config struct {
	// AutoFlushThreshold flushes the superblock automatically once this many
	// mutations are staged. Zero disables auto-flush (harnesses drive flushes
	// explicitly for determinism).
	AutoFlushThreshold int
	// StagingTokens bounds concurrently staged mutations (bug #12 pool).
	// Zero means a generous default.
	StagingTokens int
}

// NewManager formats a fresh extent table over sched's disk: extent 0 is the
// superblock, extent 1 the LSM metadata extent, the rest free.
func NewManager(sched *dep.Scheduler, cfg Config, bugs *faults.Set) (*Manager, error) {
	m, err := newManager(sched, cfg, bugs)
	if err != nil {
		return nil, err
	}
	m.owner[SuperblockExtent] = OwnerSuperblock
	if int(MetaExtent) < len(m.owner) {
		m.owner[MetaExtent] = OwnerMeta
	}
	return m, nil
}

func newManager(sched *dep.Scheduler, cfg Config, bugs *faults.Set) (*Manager, error) {
	dcfg := sched.Disk().Config()
	recSize := recordSize(dcfg)
	if recSize > dcfg.ExtentBytes() {
		return nil, fmt.Errorf("extent: superblock record (%d B) exceeds extent capacity (%d B)", recSize, dcfg.ExtentBytes())
	}
	tokens := cfg.StagingTokens
	if tokens <= 0 {
		tokens = 1024
	}
	m := &Manager{
		sched:      sched,
		cfg:        dcfg,
		obs:        sched.Obs(),
		bugs:       bugs,
		soft:       make([]int, dcfg.ExtentCount),
		owner:      make([]Owner, dcfg.ExtentCount),
		gates:      make(map[disk.ExtentID]*dep.Dependency),
		resetGates: make(map[disk.ExtentID]*dep.Dependency),
		poolCap:    tokens,
	}
	m.poolCond = vsync.NewCond(&m.mu)
	m.autoFlush = cfg.AutoFlushThreshold
	slots := dcfg.ExtentBytes() / recSize
	if slots < 4 {
		return nil, fmt.Errorf("extent: superblock extent too small: %d record slots, need 4", slots)
	}
	m.ownSlots = 2
	m.sbOffPtr = m.ownSlots * recSize
	return m, nil
}

// recordSize returns the page-aligned on-disk size of one superblock record.
func recordSize(dcfg disk.Config) int {
	raw := headerSize + dcfg.ExtentCount*entrySize + trailerSize
	ps := dcfg.PageSize
	return (raw + ps - 1) / ps * ps
}

// Scheduler returns the IO scheduler this manager writes through.
func (m *Manager) Scheduler() *dep.Scheduler { return m.sched }

// Pointer returns the in-memory soft write pointer of ext.
func (m *Manager) Pointer(ext disk.ExtentID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.soft[ext]
}

// OwnerOf returns the in-memory ownership of ext.
func (m *Manager) OwnerOf(ext disk.ExtentID) Owner {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner[ext]
}

// Capacity returns the byte capacity of every extent.
func (m *Manager) Capacity() int { return m.cfg.ExtentBytes() }

// ExtentCount returns the number of extents on the disk.
func (m *Manager) ExtentCount() int { return m.cfg.ExtentCount }

// ResetHappened reports whether any extent was reset this session (bug #3
// trigger state, consulted by the LSM shutdown path).
func (m *Manager) ResetHappened() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resetHappened
}

// acquireTokenLocked takes one staging token. When the pool is exhausted
// the correct implementation drains it itself by flushing the staged record
// inline (releasing every token); the seeded bug #12 instead parks on the
// pool condvar, relying on a separate flusher thread — which deadlocks when
// that flusher competes for a token too. Caller holds m.mu.
func (m *Manager) acquireTokenLocked() {
	for m.poolUsed >= m.poolCap {
		m.obs.Hit("extent.pool.exhausted")
		if m.bugs.Enabled(faults.Bug12BufferPoolDeadlock) {
			m.poolCond.Wait()
			continue
		}
		if _, err := m.flushLocked(); err != nil {
			// Flush failures leave the pool full; waiting is the only option.
			m.poolCond.Wait()
		}
	}
	m.poolUsed++
}

// releaseTokensLocked returns n staging tokens and wakes waiters.
func (m *Manager) releaseTokensLocked(n int) {
	m.poolUsed -= n
	if m.poolUsed < 0 {
		m.poolUsed = 0
	}
	m.poolCond.Broadcast()
}

// stagePtrLocked records a pointer mutation and returns the future
// dependency for the pointer record that will carry it. waits are attached
// to that record's writeback. Caller holds m.mu.
func (m *Manager) stagePtrLocked(waits ...*dep.Dependency) *dep.Dependency {
	m.acquireTokenLocked()
	if m.futurePtr == nil {
		m.futurePtr = m.sched.Future()
	}
	m.stagedPtr = true
	for _, w := range waits {
		if w != nil {
			m.stagedWaits = append(m.stagedWaits, w)
		}
	}
	return m.futurePtr
}

// stageOwnLocked records an ownership mutation and returns the future
// dependency for the ownership record that will carry it.
func (m *Manager) stageOwnLocked() *dep.Dependency {
	m.acquireTokenLocked()
	if m.futureOwn == nil {
		m.futureOwn = m.sched.Future()
	}
	m.stagedOwn = true
	return m.futureOwn
}

// Allocate hands out a free extent to owner, staging the ownership change
// into the next superblock record. New appends to the extent wait for that
// record to persist — except under bug #6, where managers built by Recover
// forget to install the gate.
func (m *Manager) Allocate(owner Owner) (disk.ExtentID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.owner {
		ext := disk.ExtentID(i)
		if m.owner[i] != OwnerFree {
			continue
		}
		m.owner[i] = owner
		m.soft[i] = 0
		ownDep := m.stageOwnLocked()
		m.gates[ext] = dep.All(m.gates[ext], ownDep)
		m.obs.Hit("extent.allocate")
		return ext, nil
	}
	return 0, ErrNoFreeExtent
}

// Append writes data at the extent's soft write pointer, advancing it, and
// returns the data's offset plus the dependency covering the data write, the
// superblock pointer update, and any allocation/reset gates (§2.2, Fig 2).
// The append is not issued to disk until every dependency in waits persists.
// Ownership of data transfers to the scheduler (zero-copy enqueue): callers
// must not mutate it afterwards.
func (m *Manager) Append(label string, ext disk.ExtentID, data []byte, waits ...*dep.Dependency) (int, *dep.Dependency, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner[ext] == OwnerFree || m.owner[ext] == OwnerSuperblock {
		return 0, nil, fmt.Errorf("%w: append to %v extent %d", ErrNotOwned, m.owner[ext], ext)
	}
	off := m.soft[ext]
	if off+len(data) > m.cfg.ExtentBytes() {
		return 0, nil, fmt.Errorf("%w: extent %d pointer %d + %d > %d", ErrExtentFull, ext, off, len(data), m.cfg.ExtentBytes())
	}
	m.soft[ext] += len(data)

	allWaits := append([]*dep.Dependency(nil), waits...)
	if gate := m.gates[ext]; gate != nil {
		allWaits = append(allWaits, gate)
	}
	wdep := m.sched.WriteOwned(label, ext, off, data, allWaits...)
	ptrDep := m.stagePtrLocked()
	if err := m.maybeAutoFlushLocked(); err != nil {
		return 0, nil, fmt.Errorf("auto-flush after append: %w", err)
	}
	if m.bugs.Enabled(faults.Bug8CacheWriteMissingDep) {
		// Seeded bug #8: the write's dependency omitted the soft write
		// pointer update, so a crash could persist the data while the
		// superblock still points before it — making the data unreadable
		// after recovery even though the dependency claimed persistence.
		m.obs.Hit("extent.bug8.missing_ptr_dep")
		return off, wdep, nil
	}
	return off, wdep.And(ptrDep), nil
}

// Read reads length bytes at off from ext, refusing reads past the soft
// write pointer (§2.1: "ShardStore forbids reads beyond an extent's write
// pointer").
func (m *Manager) Read(ext disk.ExtentID, off, length int, buf []byte) error {
	m.mu.Lock()
	if int(ext) >= len(m.owner) {
		m.mu.Unlock()
		return fmt.Errorf("%w: read from extent %d of %d", ErrNotOwned, ext, len(m.owner))
	}
	if m.owner[ext] == OwnerFree {
		m.mu.Unlock()
		return fmt.Errorf("%w: read from free extent %d", ErrNotOwned, ext)
	}
	if off+length > m.soft[ext] {
		ptr := m.soft[ext]
		m.mu.Unlock()
		return fmt.Errorf("%w: extent %d [%d,%d) pointer %d", ErrBeyondPointer, ext, off, off+length, ptr)
	}
	m.mu.Unlock()
	return m.sched.ReadAt(ext, off, buf[:length])
}

// Reset returns the extent's write pointer to zero so the space can be
// reused (§2.1). waits carries the caller's evacuation dependencies: the
// reset record — and, via the gate, any subsequent append to this extent —
// persists only after the evacuated chunks and their index updates are
// durable. Under bug #7 the gate is skipped, so new appends can physically
// overwrite live data before the evacuations persist.
func (m *Manager) Reset(ext disk.ExtentID, waits ...*dep.Dependency) (*dep.Dependency, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner[ext] == OwnerFree || m.owner[ext] == OwnerSuperblock {
		return nil, fmt.Errorf("%w: reset of %v extent %d", ErrNotOwned, m.owner[ext], ext)
	}
	// Flush any already-staged mutations into their own record first. The
	// reset record must wait on the caller's evacuation dependencies, and
	// those dependencies typically include pointer updates staged for the
	// *current* record — batching them together would make the record wait
	// on its own future, a cycle that would wedge the IO scheduler.
	if m.stagedPtr || m.stagedOwn {
		if _, err := m.flushLocked(); err != nil {
			return nil, err
		}
	}
	m.soft[ext] = 0
	m.resetHappened = true
	resetDep := m.stagePtrLocked(waits...)
	if _, err := m.flushLocked(); err != nil {
		return nil, err
	}
	// Cancel buffered writebacks into the reclaimed space. Their durability
	// obligation transfers to the reset record, which is ordered after the
	// evacuations and reference updates that superseded the data.
	m.sched.CancelExtentPending(ext, resetDep)
	if m.bugs.Enabled(faults.Bug7SoftHardPointerSkew) {
		// Seeded bug #7: appends after a reset did not wait for the reset
		// record (and its evacuation dependencies) to persist, so the soft
		// and hard write pointers could disagree across a crash.
		m.obs.Hit("extent.bug7.skipped_gate")
		delete(m.gates, ext)
		delete(m.resetGates, ext)
	} else {
		m.gates[ext] = resetDep
		m.resetGates[ext] = resetDep
	}
	m.obs.Hit("extent.reset")
	if err := m.maybeAutoFlushLocked(); err != nil {
		return nil, fmt.Errorf("auto-flush after reset: %w", err)
	}
	return resetDep, nil
}

// ResetGatePending reports whether ext has a reset record that is not yet
// durable. Evacuation targets must avoid such extents (see resetGates).
func (m *Manager) ResetGatePending(ext disk.ExtentID) bool {
	m.mu.Lock()
	g := m.resetGates[ext]
	m.mu.Unlock()
	if g == nil {
		return false
	}
	if g.IsPersistent() {
		m.mu.Lock()
		if m.resetGates[ext] == g {
			delete(m.resetGates, ext)
		}
		m.mu.Unlock()
		return false
	}
	return true
}

// FreeExtent releases ownership of ext back to the free pool, staging the
// ownership change.
func (m *Manager) FreeExtent(ext disk.ExtentID) (*dep.Dependency, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner[ext] == OwnerSuperblock || m.owner[ext] == OwnerMeta {
		return nil, fmt.Errorf("%w: cannot free %v extent", ErrNotOwned, m.owner[ext])
	}
	m.owner[ext] = OwnerFree
	m.soft[ext] = 0
	ptrDep := m.stagePtrLocked()
	return ptrDep.And(m.stageOwnLocked()), nil
}

// FreeCount returns the number of unallocated extents.
func (m *Manager) FreeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, o := range m.owner {
		if o == OwnerFree {
			n++
		}
	}
	return n
}

// OwnedExtents returns the extents with the given owner, ascending.
func (m *Manager) OwnedExtents(owner Owner) []disk.ExtentID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []disk.ExtentID
	for i, o := range m.owner {
		if o == owner {
			out = append(out, disk.ExtentID(i))
		}
	}
	return out
}

// maybeAutoFlushLocked flushes the superblock when enough mutations are
// staged. Caller holds m.mu. The flush error propagates: an auto-flush is
// the same durability-critical write as an explicit Flush, just triggered
// by the staging watermark instead of the caller.
func (m *Manager) maybeAutoFlushLocked() error {
	if m.autoFlush > 0 && m.poolUsed >= m.autoFlush {
		_, err := m.flushLocked()
		return err
	}
	return nil
}

// Flush serializes the full pointer + ownership table into a new superblock
// record, enqueues its write, and binds the outstanding future dependency to
// it. It returns the record's dependency.
func (m *Manager) Flush() (*dep.Dependency, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

func (m *Manager) flushLocked() (*dep.Dependency, error) {
	if m.bugs.Enabled(faults.Bug12BufferPoolDeadlock) {
		// Seeded bug #12: the flusher competed for a staging token with the
		// threads whose staged updates it was supposed to drain. With the
		// pool exhausted every thread waits forever.
		m.obs.Hit("extent.bug12.flusher_waits")
		m.acquireTokenLocked()
		m.poolUsed-- // token returned immediately after the record is built
	}
	virgin := m.lastRecord == nil
	out := dep.Resolved()
	if m.stagedOwn || virgin {
		if m.bugs.Enabled(faults.Bug6SuperblockOwnershipDep) && m.recovered {
			// Seeded bug #6: after a reboot, the flusher believed the
			// recovered ownership table was already durable and bound the
			// ownership dependency to the pointer record instead of writing
			// an ownership record. Allocations made after the reboot are
			// therefore never persisted, and a later crash recovers the
			// extent as free — with durable chunks and index entries still
			// pointing into it.
			m.obs.Hit("extent.bug6.ownership_not_written")
			if m.futureOwn != nil {
				m.sched.Bind(m.futureOwn, dep.Resolved())
				m.futureOwn = nil
			}
			m.stagedOwn = false
		} else {
			rec := m.encodeRecordLocked(ownRecordMagic)
			var waits []*dep.Dependency
			if m.lastOwnRec != nil {
				waits = append(waits, m.lastOwnRec)
			}
			recDep := m.writeRecordLocked(rec, waits)
			m.lastOwnRec = recDep
			if m.futureOwn != nil {
				m.sched.Bind(m.futureOwn, recDep)
				m.futureOwn = nil
			}
			m.stagedOwn = false
			out = out.And(recDep)
		}
	}
	if m.stagedPtr || virgin {
		rec := m.encodeRecordLocked(ptrRecordMagic)
		waits := m.stagedWaits
		m.stagedWaits = nil
		if m.lastPtrRec != nil && !m.lastPtrRec.IsPersistent() {
			waits = append(waits, m.lastPtrRec)
		}
		recDep := m.writeRecordLocked(rec, waits)
		m.lastPtrRec = recDep
		if m.futurePtr != nil {
			m.sched.Bind(m.futurePtr, recDep)
			m.futurePtr = nil
		}
		m.stagedPtr = false
		out = out.And(recDep)
	}
	if out == dep.Resolved() && m.lastRecord != nil {
		return m.lastRecord, nil
	}
	m.releaseTokensLocked(m.poolUsed)
	m.lastRecord = out
	m.obs.Hit("extent.superblock.flush")
	return out, nil
}

// writeRecordLocked enqueues one record write, cycling within the stream's
// slot region.
func (m *Manager) writeRecordLocked(rec []byte, waits []*dep.Dependency) *dep.Dependency {
	recSize := len(rec)
	own := binary.BigEndian.Uint32(rec[0:4]) == ownRecordMagic
	var off int
	if own {
		if m.sbOffOwn+recSize > m.ownSlots*recSize {
			m.sbOffOwn = 0
			m.obs.Hit("extent.superblock.cycle")
		}
		off = m.sbOffOwn
		m.sbOffOwn += recSize
	} else {
		if m.sbOffPtr+recSize > m.cfg.ExtentBytes() {
			m.sbOffPtr = m.ownSlots * recSize
			m.obs.Hit("extent.superblock.cycle")
		}
		off = m.sbOffPtr
		m.sbOffPtr += recSize
	}
	label := "superblock pointer record"
	if own {
		label = "superblock ownership record"
	}
	// rec is built fresh by encodeRecordLocked; hand it to the scheduler
	// without a copy.
	d := m.sched.WriteOwned(label, SuperblockExtent, off, rec, waits...)
	return d
}

// StagedMutations reports whether superblock mutations await a flush.
func (m *Manager) StagedMutations() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stagedPtr || m.stagedOwn
}

// encodeRecordLocked serializes one record stream (pointer or ownership
// snapshot, selected by magic). Caller holds m.mu.
func (m *Manager) encodeRecordLocked(magic uint32) []byte {
	var gen uint64
	if magic == ptrRecordMagic {
		m.genPtr++
		gen = m.genPtr
	} else {
		m.genOwn++
		gen = m.genOwn
	}
	raw := make([]byte, 0, headerSize+len(m.soft)*entrySize+trailerSize)
	raw = binary.BigEndian.AppendUint32(raw, magic)
	raw = binary.BigEndian.AppendUint64(raw, gen)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(m.soft)))
	for i := range m.soft {
		raw = binary.BigEndian.AppendUint32(raw, uint32(i))
		if magic == ptrRecordMagic {
			raw = binary.BigEndian.AppendUint32(raw, uint32(m.soft[i]))
			raw = append(raw, 0)
		} else {
			raw = binary.BigEndian.AppendUint32(raw, uint32(m.owner[i]))
			raw = append(raw, 0)
		}
	}
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	// Pad to page alignment so records never share a page (a torn page can
	// then corrupt at most one record).
	rs := recordSize(m.cfg)
	padded := make([]byte, rs)
	copy(padded, raw)
	return padded
}

// decodeRecord parses one record; returns ok=false for invalid records
// (wrong magic, bad CRC, torn writes). vals holds pointers or owner codes
// depending on the record type.
func decodeRecord(buf []byte, extentCount int) (magic uint32, gen uint64, vals []uint32, ok bool) {
	if len(buf) < headerSize+trailerSize {
		return 0, 0, nil, false
	}
	magic = binary.BigEndian.Uint32(buf[0:4])
	if magic != ptrRecordMagic && magic != ownRecordMagic {
		return 0, 0, nil, false
	}
	gen = binary.BigEndian.Uint64(buf[4:12])
	count := int(binary.BigEndian.Uint32(buf[12:16]))
	if count != extentCount {
		return 0, 0, nil, false
	}
	need := headerSize + count*entrySize + trailerSize
	if len(buf) < need {
		return 0, 0, nil, false
	}
	body := buf[:need-trailerSize]
	wantCRC := binary.BigEndian.Uint32(buf[need-trailerSize : need])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, 0, nil, false
	}
	vals = make([]uint32, count)
	pos := headerSize
	for i := 0; i < count; i++ {
		idx := int(binary.BigEndian.Uint32(buf[pos : pos+4]))
		if idx != i {
			return 0, 0, nil, false
		}
		vals[i] = binary.BigEndian.Uint32(buf[pos+4 : pos+8])
		pos += entrySize
	}
	return magic, gen, vals, true
}

// Recover rebuilds the extent table after a reboot by scanning the
// superblock extent for the highest-generation valid record.
func Recover(sched *dep.Scheduler, cfg Config, bugs *faults.Set) (*Manager, error) {
	m, err := newManager(sched, cfg, bugs)
	if err != nil {
		return nil, err
	}
	d := sched.Disk()
	dcfg := d.Config()
	rs := recordSize(dcfg)
	var bestPtrGen, bestOwnGen uint64
	var bestPtr, bestOwn []uint32
	bestPtrOff, bestOwnOff := -1, -1
	buf := make([]byte, rs)
	for off := 0; off+rs <= dcfg.ExtentBytes(); off += rs {
		if err := d.ReadAt(SuperblockExtent, off, buf); err != nil {
			return nil, fmt.Errorf("extent: recovery read: %w", err)
		}
		magic, gen, vals, ok := decodeRecord(buf, dcfg.ExtentCount)
		if !ok {
			continue
		}
		switch magic {
		case ptrRecordMagic:
			if bestPtr == nil || gen > bestPtrGen {
				bestPtrGen, bestPtr, bestPtrOff = gen, vals, off
			}
		case ownRecordMagic:
			if bestOwn == nil || gen > bestOwnGen {
				bestOwnGen, bestOwn, bestOwnOff = gen, vals, off
			}
		}
	}
	if bestPtr == nil && bestOwn == nil {
		// Virgin disk: format fresh. This is formatting, not recovery, so
		// the recovered flag (the bug #6 trigger) stays false.
		m.owner[SuperblockExtent] = OwnerSuperblock
		if int(MetaExtent) < len(m.owner) {
			m.owner[MetaExtent] = OwnerMeta
		}
		m.obs.Hit("extent.recover.virgin")
		return m, nil
	}
	if bestOwn != nil {
		for i, v := range bestOwn {
			m.owner[i] = Owner(v)
		}
	} else {
		m.owner[SuperblockExtent] = OwnerSuperblock
		if int(MetaExtent) < len(m.owner) {
			m.owner[MetaExtent] = OwnerMeta
		}
	}
	if bestPtr != nil {
		for i, v := range bestPtr {
			if m.owner[i] == OwnerFree {
				continue // stale pointers on unowned extents are meaningless
			}
			m.soft[i] = int(v)
		}
	}
	m.genPtr = bestPtrGen
	m.genOwn = bestOwnGen
	if bestOwnOff >= 0 {
		m.sbOffOwn = bestOwnOff + rs
		if m.sbOffOwn+rs > m.ownSlots*rs {
			m.sbOffOwn = 0
		}
	}
	if bestPtrOff >= 0 {
		m.sbOffPtr = bestPtrOff + rs
		if m.sbOffPtr+rs > dcfg.ExtentBytes() {
			m.sbOffPtr = m.ownSlots * rs
		}
	}
	m.recovered = true
	m.obs.Hit("extent.recover")
	return m, nil
}

// SortExtentIDs sorts extent ids ascending; helper for stable output.
func SortExtentIDs(ids []disk.ExtentID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
