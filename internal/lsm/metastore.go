package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/vsync"
)

// MetaStore persists the tree's metadata record — the list of chunk locators
// currently backing the tree (§2.1: "the LSM tree's metadata structure,
// stored on disk in a reserved metadata extent, records locators of chunks
// currently in use by the tree").
type MetaStore interface {
	// WriteRecord durably replaces the metadata with payload, ordered after
	// waits. The returned dependency covers the record write.
	WriteRecord(payload []byte, waits ...*dep.Dependency) (*dep.Dependency, error)
	// ReadLatest returns the most recent durable metadata payload, or nil if
	// none was ever written.
	ReadLatest() ([]byte, error)
	// LastDep returns the dependency of the newest metadata record. Because
	// record writes are chained, its persistence implies every earlier
	// record (and, transitively, every run those records reference) is
	// durable.
	LastDep() *dep.Dependency
}

// metaMagic marks LSM metadata records on disk.
const metaMagic uint32 = 0x4C534D31 // "LSM1"

const metaHeaderLen = 4 + 8 + 4 // magic, gen, payload length
const metaTrailerLen = 4        // crc

// ErrMetaTooLarge is returned when a metadata record does not fit a slot.
var ErrMetaTooLarge = errors.New("lsm: metadata record exceeds slot size")

// ExtentMetaStore writes generation-tagged, CRC-protected records into
// fixed-size page-aligned slots on the reserved metadata extent, cycling
// through the slots. Recovery scans every slot and adopts the
// highest-generation valid record, so a torn record write simply loses that
// write, never the previous metadata — the same discipline the superblock
// uses.
type ExtentMetaStore struct {
	mu       vsync.Mutex
	sched    *dep.Scheduler
	ext      disk.ExtentID
	slotSize int
	slots    int
	nextSlot int
	gen      uint64
	// lastRec chains record writes so at most one is in flight; see the
	// superblock's identical discipline for why (a torn slot reuse must not
	// be able to destroy the newest durable record).
	lastRec *dep.Dependency
}

// NewExtentMetaStore creates a metadata store on ext. maxPayload bounds the
// record payload; it determines the slot size.
func NewExtentMetaStore(sched *dep.Scheduler, ext disk.ExtentID, maxPayload int) (*ExtentMetaStore, error) {
	cfg := sched.Disk().Config()
	raw := metaHeaderLen + maxPayload + metaTrailerLen
	ps := cfg.PageSize
	slotSize := (raw + ps - 1) / ps * ps
	slots := cfg.ExtentBytes() / slotSize
	if slots < 2 {
		return nil, fmt.Errorf("lsm: metadata extent too small: %d slots of %d bytes", slots, slotSize)
	}
	m := &ExtentMetaStore{sched: sched, ext: ext, slotSize: slotSize, slots: slots}
	// Adopt the generation and slot cursor from any existing records so a
	// recovered store keeps ascending generations.
	if err := m.recoverCursor(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *ExtentMetaStore) recoverCursor() error {
	buf := make([]byte, m.slotSize)
	bestSlot := -1
	for slot := 0; slot < m.slots; slot++ {
		if err := m.sched.Disk().ReadAt(m.ext, slot*m.slotSize, buf); err != nil {
			return fmt.Errorf("lsm: metadata cursor scan: %w", err)
		}
		gen, _, ok := decodeMetaRecord(buf)
		if ok && gen > m.gen {
			m.gen = gen
			bestSlot = slot
		}
	}
	if bestSlot >= 0 {
		m.nextSlot = (bestSlot + 1) % m.slots
	}
	return nil
}

// WriteRecord implements MetaStore.
func (m *ExtentMetaStore) WriteRecord(payload []byte, waits ...*dep.Dependency) (*dep.Dependency, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	raw := make([]byte, 0, metaHeaderLen+len(payload)+metaTrailerLen)
	m.gen++
	raw = binary.BigEndian.AppendUint32(raw, metaMagic)
	raw = binary.BigEndian.AppendUint64(raw, m.gen)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	if len(raw) > m.slotSize {
		return nil, fmt.Errorf("%w: %d > %d", ErrMetaTooLarge, len(raw), m.slotSize)
	}
	rec := make([]byte, m.slotSize)
	copy(rec, raw)
	off := m.nextSlot * m.slotSize
	m.nextSlot = (m.nextSlot + 1) % m.slots
	allWaits := append([]*dep.Dependency(nil), waits...)
	if m.lastRec != nil && !m.lastRec.IsPersistent() {
		allWaits = append(allWaits, m.lastRec)
	}
	d := m.sched.WriteOwned("LSM-tree metadata", m.ext, off, rec, allWaits...)
	m.lastRec = d
	m.sched.Obs().Hit("lsm.meta.write")
	return d, nil
}

// LastDep implements MetaStore.
func (m *ExtentMetaStore) LastDep() *dep.Dependency {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastRec == nil {
		return dep.Resolved()
	}
	return m.lastRec
}

// ReadLatest implements MetaStore.
func (m *ExtentMetaStore) ReadLatest() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := make([]byte, m.slotSize)
	var best []byte
	var bestGen uint64
	for slot := 0; slot < m.slots; slot++ {
		if err := m.sched.Disk().ReadAt(m.ext, slot*m.slotSize, buf); err != nil {
			return nil, fmt.Errorf("lsm: metadata scan: %w", err)
		}
		gen, payload, ok := decodeMetaRecord(buf)
		if !ok {
			continue
		}
		if best == nil || gen > bestGen {
			bestGen = gen
			best = append([]byte(nil), payload...)
		}
	}
	return best, nil
}

func decodeMetaRecord(buf []byte) (gen uint64, payload []byte, ok bool) {
	if len(buf) < metaHeaderLen+metaTrailerLen {
		return 0, nil, false
	}
	if binary.BigEndian.Uint32(buf[0:4]) != metaMagic {
		return 0, nil, false
	}
	gen = binary.BigEndian.Uint64(buf[4:12])
	plen := int(binary.BigEndian.Uint32(buf[12:16]))
	if plen < 0 || metaHeaderLen+plen+metaTrailerLen > len(buf) {
		return 0, nil, false
	}
	body := buf[:metaHeaderLen+plen]
	want := binary.BigEndian.Uint32(buf[metaHeaderLen+plen : metaHeaderLen+plen+4])
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, false
	}
	return gen, buf[metaHeaderLen : metaHeaderLen+plen], true
}
