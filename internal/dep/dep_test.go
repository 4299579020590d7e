package dep

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"shardstore/internal/disk"
)

func newSched(t *testing.T) *Scheduler {
	t.Helper()
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(d, Options{})
}

func TestWriteBecomesPersistentAfterPump(t *testing.T) {
	s := newSched(t)
	d := s.Write("w", 1, 0, []byte{1, 2, 3})
	if d.IsPersistent() {
		t.Fatal("persistent before pump")
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !d.IsPersistent() {
		t.Fatal("not persistent after pump")
	}
	buf := make([]byte, 3)
	if err := s.Disk().ReadAt(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("data not written: %v", buf)
	}
}

func TestDependencyOrderingEnforced(t *testing.T) {
	s := newSched(t)
	first := s.Write("first", 1, 0, []byte{1})
	second := s.Write("second", 2, 0, []byte{2}, first)

	// One issue round puts only the first write on disk.
	if n := s.Step(); n != 1 {
		t.Fatalf("step issued %d, want 1 (only the independent write)", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !first.IsPersistent() {
		t.Fatal("first should be durable")
	}
	if second.IsPersistent() {
		t.Fatal("second must not be durable before being issued")
	}
	if n := s.Step(); n != 1 {
		t.Fatalf("second step issued %d, want 1", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !second.IsPersistent() {
		t.Fatal("second should now be durable")
	}
}

func TestAndCombinesDependencies(t *testing.T) {
	s := newSched(t)
	a := s.Write("a", 1, 0, []byte{1})
	b := s.Write("b", 2, 0, []byte{2})
	both := a.And(b)
	if n := s.Step(); n != 2 {
		t.Fatalf("issued %d", n)
	}
	if both.IsPersistent() {
		t.Fatal("And persistent before sync")
	}
	_ = s.Sync()
	if !both.IsPersistent() {
		t.Fatal("And not persistent after sync")
	}
}

func TestResolvedIsAlwaysPersistent(t *testing.T) {
	if !Resolved().IsPersistent() {
		t.Fatal("Resolved must be persistent")
	}
	if Resolved().And() != Resolved() {
		t.Fatal("And of nothing should collapse to Resolved")
	}
	if !All(nil, Resolved(), nil).IsPersistent() {
		t.Fatal("All of nils must be persistent")
	}
}

func TestFutureBinding(t *testing.T) {
	s := newSched(t)
	fut := s.Future()
	if fut.IsPersistent() {
		t.Fatal("unbound future persistent")
	}
	w := s.Write("record", 0, 0, []byte{7})
	s.Bind(fut, w)
	if fut.IsPersistent() {
		t.Fatal("bound future persistent before pump")
	}
	_ = s.Pump()
	if !fut.IsPersistent() {
		t.Fatal("bound future not persistent after pump")
	}
}

func TestWriteWaitingOnUnboundFutureBlocksPump(t *testing.T) {
	s := newSched(t)
	fut := s.Future()
	s.Write("gated", 1, 0, []byte{1}, fut)
	if err := s.Pump(); !errors.Is(err, ErrUnboundFuture) {
		t.Fatalf("pump error = %v, want ErrUnboundFuture", err)
	}
	s.Bind(fut, Resolved())
	if err := s.Pump(); err != nil {
		t.Fatalf("pump after bind: %v", err)
	}
}

func TestCoalescingAdjacentWrites(t *testing.T) {
	s := newSched(t)
	s.Write("a", 1, 0, []byte{1, 2})
	s.Write("b", 1, 2, []byte{3, 4})
	s.Write("c", 1, 4, []byte{5, 6})
	s.Write("d", 2, 0, []byte{9}) // different extent: separate IO
	if n := s.Step(); n != 4 {
		t.Fatalf("issued %d", n)
	}
	st := s.Stats()
	if st.IOs != 2 {
		t.Fatalf("IOs = %d, want 2 (one coalesced run + one single)", st.IOs)
	}
	if st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", st.Coalesced)
	}
	_ = s.Sync()
	buf := make([]byte, 6)
	_ = s.Disk().ReadAt(1, 0, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("coalesced content: %v", buf)
	}
}

func TestReadAtOverlaysPendingQueue(t *testing.T) {
	s := newSched(t)
	fut := s.Future() // keeps the write unissuable
	s.Write("pending", 1, 4, []byte{0xAB, 0xCD}, fut)
	buf := make([]byte, 8)
	if err := s.ReadAt(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[4] != 0xAB || buf[5] != 0xCD {
		t.Fatalf("pending write not visible: %v", buf)
	}
	if buf[0] != 0 {
		t.Fatalf("unrelated bytes affected: %v", buf)
	}
}

func TestCrashFreezesPersistence(t *testing.T) {
	s := newSched(t)
	a := s.Write("durable", 1, 0, []byte{1})
	_ = s.Pump()
	b := s.Write("pending", 2, 0, []byte{2})
	s.Crash(rand.New(rand.NewSource(1)))
	if !a.IsPersistent() {
		t.Fatal("pre-crash durable write lost its persistence")
	}
	if b.IsPersistent() {
		t.Fatal("pending write persistent after crash")
	}
}

func TestCancelExtentPendingSupersedes(t *testing.T) {
	s := newSched(t)
	old := s.Write("old", 3, 0, []byte{1})
	replacement := s.Write("replacement", 4, 0, []byte{1})
	n := s.CancelExtentPending(3, replacement)
	if n != 1 {
		t.Fatalf("cancelled %d", n)
	}
	if old.IsPersistent() {
		t.Fatal("superseded write persistent before replacement durable")
	}
	_ = s.Pump()
	if !old.IsPersistent() {
		t.Fatal("superseded write should inherit replacement's persistence")
	}
	// The cancelled bytes must never reach the disk.
	buf := make([]byte, 1)
	_ = s.Disk().ReadAt(3, 0, buf)
	if buf[0] != 0 {
		t.Fatal("cancelled write reached the disk")
	}
}

func TestStepRandomIssuesSubset(t *testing.T) {
	s := newSched(t)
	for i := 0; i < 10; i++ {
		s.Write("w", disk.ExtentID(1+i%3), (i/3)*s.Disk().Config().PageSize, []byte{byte(i)})
	}
	rng := rand.New(rand.NewSource(3))
	n := s.StepRandom(rng)
	if n == 0 {
		t.Fatal("StepRandom issued nothing despite issuable writes")
	}
	if n == 10 && s.PendingCount() == 0 {
		t.Log("all issued (possible but unlikely)")
	}
}

func TestTransientWriteFailureRetried(t *testing.T) {
	s := newSched(t)
	d := s.Write("w", 1, 0, []byte{1})
	s.Disk().InjectFailOnce(1)
	if err := s.Pump(); err != nil {
		t.Fatalf("pump with transient failure: %v", err)
	}
	if !d.IsPersistent() {
		t.Fatal("write not retried after transient failure")
	}
	if s.Stats().WriteErrors == 0 {
		t.Fatal("write error not counted")
	}
}

func TestPermanentWriteFailureBlocksPump(t *testing.T) {
	s := newSched(t)
	s.Write("w", 1, 0, []byte{1})
	s.Disk().InjectFailPermanent(1)
	if err := s.Pump(); err == nil {
		t.Fatal("pump should report blocked writebacks")
	}
}

func TestGraphInspection(t *testing.T) {
	s := newSched(t)
	data := s.Write("shard data chunk", 4, 0, []byte{1})
	idx := s.Write("index entry", 12, 0, []byte{2}, data)
	meta := s.Write("LSM-tree metadata", 9, 0, []byte{3}, idx)
	nodes, edges := meta.Graph()
	if len(nodes) != 3 {
		t.Fatalf("nodes: %v", nodes)
	}
	// Direct edges plus the transitive data->meta edge are all legitimate
	// orderings; require the two essential ones.
	hasEdge := func(from, to uint64) bool {
		for _, e := range edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !hasEdge(1, 2) || !hasEdge(2, 3) {
		t.Fatalf("missing essential edges: %v", edges)
	}
	dump := DumpGraph(meta)
	if dump == "" {
		t.Fatal("empty dump")
	}
}

func TestDifferentSchedulerAndPanics(t *testing.T) {
	s1 := newSched(t)
	s2 := newSched(t)
	a := s1.Write("a", 0, 0, []byte{1})
	b := s2.Write("b", 0, 0, []byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("combining deps across schedulers should panic")
		}
	}()
	_ = a.And(b)
}

func TestPersistenceMonotonic(t *testing.T) {
	s := newSched(t)
	d := s.Write("w", 1, 0, []byte{1})
	_ = s.Pump()
	if !d.IsPersistent() {
		t.Fatal("not persistent")
	}
	// Crash after persistence: must stay persistent.
	s.Crash(rand.New(rand.NewSource(9)))
	if !d.IsPersistent() {
		t.Fatal("persistence not monotonic across crash")
	}
}

func TestPumpDrainsChains(t *testing.T) {
	s := newSched(t)
	prev := Resolved()
	var deps []*Dependency
	for i := 0; i < 20; i++ {
		prev = s.Write("chain", disk.ExtentID(1+i%4), (i/4)*s.Disk().Config().PageSize, []byte{byte(i)}, prev)
		deps = append(deps, prev)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	for i, d := range deps {
		if !d.IsPersistent() {
			t.Fatalf("chain link %d not persistent", i)
		}
	}
	if s.PendingCount() != 0 || s.IssuedCount() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestSingleWritebackRunIssuesInPlace pins who owns the bytes at the device
// boundary. A lone writeback is lent to disk.WriteAt as it is (no buffer of
// the scheduler's own), a coalesced run is assembled in exactly one buffer of
// the run's total length, the device keeps a copy and not the slice, and the
// writeback goes on serving ReadAt and a retry from the slice it owns.
func TestSingleWritebackRunIssuesInPlace(t *testing.T) {
	const piece = 512 // 3*piece is a Go size class and fits the 2 KiB extent
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, piece) }

	// Allocation: writeRunLocked is driven directly so nothing but the run's
	// own buffer is in the count. AllocsPerRun's warm-up call leaves the page
	// images in the disk cache, so the device side allocates nothing either.
	s := newSched(t)
	run := []*writeback{
		{id: 1, ext: 1, off: 0, data: fill(1)},
		{id: 2, ext: 1, off: piece, data: fill(2)},
		{id: 3, ext: 1, off: 2 * piece, data: fill(3)},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := testing.AllocsPerRun(50, func() { s.writeRunLocked(run[:1]) }); n != 0 {
		t.Fatalf("one-writeback run: %v allocations, want 0 (the data goes to the device as it is)", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.writeRunLocked(run) }); n != 1 {
		t.Fatalf("three-writeback run: %v allocations, want 1 (one buffer sized to the run)", n)
	}
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		s.writeRunLocked(run)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got != 3*piece {
		t.Fatalf("three-writeback run allocated %d B, want exactly %d", got, 3*piece)
	}
	buf := make([]byte, 3*piece)
	if err := s.d.ReadAt(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if want := append(append(fill(1), fill(2)...), fill(3)...); !bytes.Equal(buf, want) {
		t.Fatal("coalesced run reached the device with the wrong bytes")
	}
}

// TestIssuedDataIsCopiedAtTheDevice is the aliasing half: the scheduler lends
// a writeback's slice to the device, so the device must not keep it, and the
// scheduler must keep it for as long as it may be read or re-issued.
func TestIssuedDataIsCopiedAtTheDevice(t *testing.T) {
	s := newSched(t)
	ps := s.Disk().Config().PageSize
	data := bytes.Repeat([]byte{0x5A}, ps+7) // spans a page boundary
	want := append([]byte(nil), data...)
	read := func(when string) {
		t.Helper()
		got := make([]byte, len(want))
		if err := s.ReadAt(1, 0, got); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read back %x..., want %x...", when, got[:4], want[:4])
		}
	}

	d := s.WriteOwned("w", 1, 0, data)
	read("queued (overlay)")
	// A failed write leaves the writeback queued, still serving reads and
	// still holding the bytes the retry will issue.
	s.Disk().InjectFailOnce(1)
	if n := s.Step(); n != 0 {
		t.Fatalf("step under an injected failure issued %d", n)
	}
	read("after a failed issue (overlay)")
	if n := s.Step(); n != 1 {
		t.Fatalf("retry issued %d, want 1", n)
	}
	read("issued, not durable (device cache)")
	// The writeback has left the queue; from here the device's copy is the
	// only source. Scribbling on the slice the scheduler was given must not
	// show through — WriteAt copied it.
	for i := range data {
		data[i] = 0xFF
	}
	read("issued, slice scribbled")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !d.IsPersistent() {
		t.Fatal("not persistent after sync")
	}
	read("durable")
}
