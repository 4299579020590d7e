package extent

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
)

func newManagerT(t *testing.T, bugs *faults.Set) (*Manager, *dep.Scheduler) {
	t.Helper()
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := dep.NewScheduler(d, dep.Options{})
	m, err := NewManager(s, Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestFormatReservesWellKnownExtents(t *testing.T) {
	m, _ := newManagerT(t, nil)
	if m.OwnerOf(SuperblockExtent) != OwnerSuperblock {
		t.Fatal("extent 0 not superblock")
	}
	if m.OwnerOf(MetaExtent) != OwnerMeta {
		t.Fatal("extent 1 not meta")
	}
	if m.OwnerOf(2) != OwnerFree {
		t.Fatal("extent 2 not free")
	}
}

func TestAllocateAndAppend(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, err := m.Allocate(OwnerData)
	if err != nil {
		t.Fatal(err)
	}
	if m.OwnerOf(ext) != OwnerData {
		t.Fatal("ownership not applied")
	}
	off, d, err := m.Append("chunk", ext, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("first append offset %d", off)
	}
	if m.Pointer(ext) != 3 {
		t.Fatalf("pointer %d", m.Pointer(ext))
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !d.IsPersistent() {
		t.Fatal("append dep not persistent after flush+pump")
	}
	buf := make([]byte, 3)
	if err := m.Read(ext, 0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("abc")) {
		t.Fatalf("read %q", buf)
	}
}

func TestAppendRejectsUnownedAndFull(t *testing.T) {
	m, _ := newManagerT(t, nil)
	if _, _, err := m.Append("x", 5, []byte{1}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("append to free extent: %v", err)
	}
	ext, _ := m.Allocate(OwnerData)
	big := make([]byte, m.Capacity()+1)
	if _, _, err := m.Append("x", ext, big); !errors.Is(err, ErrExtentFull) {
		t.Fatalf("oversized append: %v", err)
	}
}

func TestReadBeyondPointerRejected(t *testing.T) {
	m, _ := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("x", ext, []byte{1, 2})
	buf := make([]byte, 3)
	if err := m.Read(ext, 0, 3, buf); !errors.Is(err, ErrBeyondPointer) {
		t.Fatalf("read beyond pointer: %v", err)
	}
	// An extent number the table does not have is an error, not an index
	// panic: it can come from a locator decoded off the disk.
	if err := m.Read(disk.ExtentID(m.ExtentCount()+7), 0, 1, buf); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("read from an extent past the table: %v", err)
	}
}

func TestAppendDependsOnPointerRecord(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, d, _ := m.Append("x", ext, []byte{1})
	// Pump without a superblock flush: the data write is gated on the
	// ownership record future, which is unbound.
	if err := s.Pump(); !errors.Is(err, dep.ErrUnboundFuture) {
		t.Fatalf("pump = %v, want unbound future (superblock not flushed)", err)
	}
	if d.IsPersistent() {
		t.Fatal("append persistent without superblock record")
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !d.IsPersistent() {
		t.Fatal("append not persistent after flush")
	}
}

func TestRecoverRestoresPointersAndOwnership(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("x", ext, []byte{1, 2, 3, 4, 5})
	_, _ = m.Flush()
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}

	s2 := dep.NewScheduler(s.Disk(), dep.Options{})
	m2, err := Recover(s2, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.OwnerOf(ext) != OwnerData {
		t.Fatalf("ownership lost: %v", m2.OwnerOf(ext))
	}
	if m2.Pointer(ext) != 5 {
		t.Fatalf("pointer lost: %d", m2.Pointer(ext))
	}
	if m2.OwnerOf(SuperblockExtent) != OwnerSuperblock {
		t.Fatal("superblock ownership lost")
	}
}

func TestRecoverVirginDiskFormats(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	s := dep.NewScheduler(d, dep.Options{})
	m, err := Recover(s, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.OwnerOf(SuperblockExtent) != OwnerSuperblock || m.OwnerOf(MetaExtent) != OwnerMeta {
		t.Fatal("virgin format wrong")
	}
}

func TestCrashLosesUnflushedPointers(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("x", ext, []byte{1, 2, 3})
	_, _ = m.Flush()
	_ = s.Pump()
	// Advance without flushing the superblock.
	_, _, _ = m.Append("y", ext, []byte{4, 5})
	s.Crash(rand.New(rand.NewSource(1)))

	s2 := dep.NewScheduler(s.Disk(), dep.Options{})
	m2, err := Recover(s2, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Pointer(ext); got != 3 {
		t.Fatalf("recovered pointer %d, want 3 (the durable record)", got)
	}
}

func TestResetRequiresWaitsPersisted(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("old", ext, []byte{1, 2, 3})
	_, _ = m.Flush()
	_ = s.Pump()

	// Simulated evacuation write the reset must wait for.
	ext2, _ := m.Allocate(OwnerData)
	_, evac, _ := m.Append("evac", ext2, []byte{9})
	resetDep, err := m.Reset(ext, evac)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pointer(ext) != 0 {
		t.Fatal("soft pointer not reset")
	}
	// A new append to the reset extent must not be issued before the reset
	// record (and hence the evacuation) persists.
	_, nd, _ := m.Append("new", ext, []byte{7})
	s.Step()
	_ = s.Sync()
	if nd.IsPersistent() {
		t.Fatal("append to reset extent persisted before the reset record")
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !resetDep.IsPersistent() || !nd.IsPersistent() {
		t.Fatal("deps should persist after full pump")
	}
}

func TestBug7SkipsResetGate(t *testing.T) {
	bugs := faults.NewSet(faults.Bug7SoftHardPointerSkew)
	m, s := newManagerT(t, bugs)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("old", ext, []byte{1})
	_, _ = m.Flush()
	_ = s.Pump()
	ext2, _ := m.Allocate(OwnerData)
	_, evac, _ := m.Append("evac", ext2, []byte{9})
	if _, err := m.Reset(ext, evac); err != nil {
		t.Fatal(err)
	}
	_, _, _ = m.Append("new", ext, []byte{7})
	// Under the bug, the new append is issuable immediately even though the
	// reset record (waiting on the evacuation) is not durable.
	if n := s.Step(); n == 0 {
		t.Fatal("bug7: gated append should have been issuable")
	}
}

func TestResetGatePending(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("x", ext, []byte{1})
	_, _ = m.Flush()
	_ = s.Pump()
	if m.ResetGatePending(ext) {
		t.Fatal("no reset yet")
	}
	_, _ = m.Reset(ext)
	if !m.ResetGatePending(ext) {
		t.Fatal("gate should be pending before pump")
	}
	_, _ = m.Flush()
	_ = s.Pump()
	if m.ResetGatePending(ext) {
		t.Fatal("gate should clear once the record is durable")
	}
}

func TestFreeExtentReturnsToPool(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	if _, err := m.FreeExtent(ext); err != nil {
		t.Fatal(err)
	}
	if m.OwnerOf(ext) != OwnerFree {
		t.Fatal("not freed")
	}
	if _, err := m.FreeExtent(SuperblockExtent); err == nil {
		t.Fatal("freed the superblock")
	}
	_, _ = m.Flush()
	_ = s.Pump()
}

func TestAllocateExhaustsPool(t *testing.T) {
	m, _ := newManagerT(t, nil)
	n := m.ExtentCount() - 2 // minus superblock + meta
	for i := 0; i < n; i++ {
		if _, err := m.Allocate(OwnerData); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if _, err := m.Allocate(OwnerData); !errors.Is(err, ErrNoFreeExtent) {
		t.Fatalf("expected exhaustion: %v", err)
	}
}

func TestOwnedExtents(t *testing.T) {
	m, _ := newManagerT(t, nil)
	a, _ := m.Allocate(OwnerData)
	b, _ := m.Allocate(OwnerData)
	got := m.OwnedExtents(OwnerData)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("owned: %v", got)
	}
}

func TestSuperblockRecordCyclingSurvivesManyFlushes(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	for i := 0; i < 40; i++ {
		if _, _, err := m.Append("x", ext, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Pump(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	s2 := dep.NewScheduler(s.Disk(), dep.Options{})
	m2, err := Recover(s2, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Pointer(ext) != 40 {
		t.Fatalf("pointer after cycling: %d", m2.Pointer(ext))
	}
}

func TestRecordChainingBoundsInFlightRecords(t *testing.T) {
	m, s := newManagerT(t, nil)
	ext, _ := m.Allocate(OwnerData)
	// Stage and flush several records without ever syncing: chaining must
	// keep all but the first unissuable.
	for i := 0; i < 4; i++ {
		_, _, _ = m.Append("x", ext, []byte{byte(i)})
		_, _ = m.Flush()
	}
	issued := s.Step()
	// First round: the data writes are gated on the ownership record; at
	// most one ptr record + one own record can issue.
	if issued > 3 {
		t.Fatalf("issued %d writebacks in one round; record chaining broken", issued)
	}
}

func TestBug6OwnershipNotRewrittenAfterReboot(t *testing.T) {
	// Session 1 (virgin): allocation persists normally.
	bugs := faults.NewSet(faults.Bug6SuperblockOwnershipDep)
	d, _ := disk.New(disk.DefaultConfig())
	s := dep.NewScheduler(d, dep.Options{})
	m, err := Recover(s, Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	extA, _ := m.Allocate(OwnerData)
	_, _, _ = m.Append("x", extA, []byte{1})
	_, _ = m.Flush()
	_ = s.Pump()

	// Session 2 (recovered): a new allocation's ownership is never written.
	s2 := dep.NewScheduler(d, dep.Options{})
	m2, err := Recover(s2, Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	extB, _ := m2.Allocate(OwnerData)
	_, dp, _ := m2.Append("y", extB, []byte{2})
	_, _ = m2.Flush()
	if err := s2.Pump(); err != nil {
		t.Fatal(err)
	}
	if !dp.IsPersistent() {
		t.Fatal("append should (incorrectly) report persistent under bug #6")
	}
	// Session 3: the extent comes back free.
	s3 := dep.NewScheduler(d, dep.Options{})
	m3, err := Recover(s3, Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	if m3.OwnerOf(extB) != OwnerFree {
		t.Fatalf("bug #6 should lose extB ownership, got %v", m3.OwnerOf(extB))
	}
	if m3.OwnerOf(extA) != OwnerData {
		t.Fatal("session-1 ownership should survive")
	}
}

// TestAutoFlushPropagation pins the auto-flush contract on the mutation
// paths: once the staging watermark is reached, Append and Reset flush the
// superblock inline and — since the flush is the same durability-critical
// write as an explicit Flush — propagate its error instead of discarding
// it (the droppederr fix). With a healthy disk the error is nil and the
// staged mutations must be gone.
func TestAutoFlushPropagation(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := dep.NewScheduler(d, dep.Options{})
	m, err := NewManager(s, Config{AutoFlushThreshold: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := m.Allocate(OwnerData)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Append("chunk", ext, []byte("abc")); err != nil {
		t.Fatalf("append with auto-flush: %v", err)
	}
	if m.StagedMutations() {
		t.Fatal("append at the watermark must auto-flush the staged mutations")
	}
	if _, err := m.Reset(ext); err != nil {
		t.Fatalf("reset with auto-flush: %v", err)
	}
	if m.StagedMutations() {
		t.Fatal("reset at the watermark must auto-flush the staged mutations")
	}
}
