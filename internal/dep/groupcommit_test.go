package dep

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/shuttle"
	"shardstore/internal/vsync"
)

func TestCommitMakesDurable(t *testing.T) {
	s := newSched(t)
	d := s.Write("w", 1, 0, []byte{1, 2, 3})
	if err := s.Commit(d, nil); err != nil {
		t.Fatal(err)
	}
	if !d.IsPersistent() {
		t.Fatal("not persistent after Commit")
	}
}

func TestCommitFastPaths(t *testing.T) {
	s := newSched(t)
	before := s.Disk().Stats().Syncs
	if err := s.Commit(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(Resolved(), nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Disk().Stats().Syncs; got != before {
		t.Fatalf("fast-path Commit issued %d syncs", got-before)
	}
}

// TestGroupCommitAmortizesSyncs orchestrates a deterministic group: the
// first committer's device flush is held open while seven more writers
// enroll in the barrier, so when the flush completes the stragglers are
// drained by at most two further leader rounds — far fewer than one sync
// per waiter.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil)
	s := NewScheduler(d, Options{Obs: o})

	const writers = 8
	gate := make(chan struct{})
	var once sync.Once
	entered := make(chan struct{})
	disk.TestHookPreSync = func() {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	defer func() { disk.TestHookPreSync = nil }()

	var wg sync.WaitGroup
	deps := make([]*Dependency, writers)
	errs := make([]error, writers)
	deps[0] = s.Write("w0", 1, 0, []byte{0})
	wg.Add(1)
	//shardlint:allow syncusage real-scheduler stress test joined by wg.Wait; TestShuttleGroupCommit covers this path under shuttle
	go func() {
		defer wg.Done()
		errs[0] = s.Commit(deps[0], nil)
	}()
	<-entered // leader is inside the held-open device flush

	for i := 1; i < writers; i++ {
		deps[i] = s.Write("w", disk.ExtentID(1+i%3), i*16, []byte{byte(i)})
	}
	for i := 1; i < writers; i++ {
		i := i
		wg.Add(1)
		//shardlint:allow syncusage real-scheduler stress test joined by wg.Wait; TestShuttleGroupCommit covers this path under shuttle
		go func() {
			defer wg.Done()
			errs[i] = s.Commit(deps[i], nil)
		}()
	}
	// Give the stragglers a moment to enroll behind the busy leader, then
	// release the flush. Enrollment is what the barrier amortizes; the
	// sleep only widens the window, correctness never depends on it.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatalf("committer %d: %v", i, errs[i])
		}
		if !deps[i].IsPersistent() {
			t.Fatalf("dep %d not persistent after Commit", i)
		}
	}
	if got := d.Stats().Syncs; got >= writers {
		t.Fatalf("%d syncs for %d committers: group commit did not amortize", got, writers)
	}
	snap := o.Snapshot()
	gs := snap.Histograms["sched.group_size"]
	if gs.Count == 0 || gs.Max < 2 {
		t.Fatalf("group-size histogram shows no grouping: %+v", gs)
	}
	if snap.Counters["sched.commit_followers"] == 0 {
		t.Fatal("no commit followers recorded despite concurrent waiters")
	}
}

// TestCommitTornBarrierFault checks the seeded defect is live: with the
// fault enabled the leader reports the group durable without flushing the
// device cache, so the dependency claims persistence the disk cannot back.
func TestCommitTornBarrierFault(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil).WithProbes()
	s := NewScheduler(d, Options{Obs: o, Bugs: faults.NewSet(faults.FaultGroupCommitTornBarrier)})
	dep := s.Write("w", 1, 0, []byte{9})
	if err := s.Commit(dep, nil); err != nil {
		t.Fatal(err)
	}
	if !dep.IsPersistent() {
		t.Fatal("torn barrier should still (wrongly) report persistence")
	}
	if got := d.Stats().Syncs; got != 0 {
		t.Fatalf("torn barrier issued %d device flushes, want 0", got)
	}
	if o.Snapshot().Probes["sched.fault.torn_barrier"] == 0 {
		t.Fatal("torn-barrier probe not hit")
	}
	// The lie becomes observable at a crash: the issued-but-unflushed pages
	// sit in the volatile disk cache and an adversarial crash drops them.
	s.Crash(rand.New(rand.NewSource(1)))
	if !dep.IsPersistent() {
		t.Fatal("persistence is monotonic; the dependency must keep claiming it")
	}
}

// TestWriteErrorSplitsCoalescedRun is the satellite-2 regression: a
// transient WriteAt failure against a coalesced run must split the run and
// land the surviving halves rather than leave the whole run queued.
func TestWriteErrorSplitsCoalescedRun(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil).WithProbes()
	s := NewScheduler(d, Options{Obs: o})
	// Two physically adjacent writes coalesce into one IO.
	w1 := s.Write("a", 1, 0, []byte{1, 1})
	w2 := s.Write("b", 1, 2, []byte{2, 2})
	d.InjectFailOnce(1)
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !w1.IsPersistent() || !w2.IsPersistent() {
		t.Fatal("split retry did not land both halves")
	}
	if o.Snapshot().Probes["sched.run_split"] == 0 {
		t.Fatal("run-split probe not hit")
	}
	if st := s.Stats(); st.WriteErrors == 0 {
		t.Fatalf("expected a recorded write error, got %+v", st)
	}
}

// TestReadsProceedDuringSync is the satellite-1 regression: the scheduler
// mutex must not be held across the device flush, so reads (which overlay
// the pending queue under that mutex) proceed while a sync is in flight.
func TestReadsProceedDuringSync(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(d, Options{})
	w := s.Write("w", 1, 0, []byte{7, 7})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	disk.TestHookPreSync = func() {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	defer func() { disk.TestHookPreSync = nil }()

	pumpDone := make(chan error, 1)
	//shardlint:allow syncusage real-scheduler test joined via pumpDone; exercises a held-open device flush shuttle cannot model
	go func() { pumpDone <- s.Pump() }()
	<-entered

	readDone := make(chan error, 1)
	//shardlint:allow syncusage real-scheduler test joined via readDone with a wall-clock timeout guard
	go func() {
		buf := make([]byte, 2)
		readDone <- s.ReadAt(1, 0, buf)
	}()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("read during sync: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAt blocked behind an in-flight device flush")
	}

	close(gate)
	if err := <-pumpDone; err != nil {
		t.Fatal(err)
	}
	if !w.IsPersistent() {
		t.Fatal("write not persistent after pump")
	}
}

// TestCrashDuringSyncNotDurable: a crash that lands while a device flush is
// in flight must not let the scheduler mark the flushed batch durable — the
// crash epoch advanced, so the sync's result no longer describes the disk.
func TestCrashDuringSyncNotDurable(t *testing.T) {
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(d, Options{})
	w := s.Write("w", 1, 0, []byte{3, 3})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	disk.TestHookPreSync = func() {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	defer func() { disk.TestHookPreSync = nil }()

	pumpDone := make(chan error, 1)
	//shardlint:allow syncusage real-scheduler test joined via pumpDone; exercises a crash during a held-open device flush
	go func() { pumpDone <- s.Pump() }()
	<-entered
	s.Crash(rand.New(rand.NewSource(7)))
	close(gate)
	<-pumpDone

	if w.IsPersistent() {
		t.Fatal("write marked durable despite crashing mid-flush")
	}
}

// TestShuttleGroupCommit model-checks the commit barrier: concurrent
// committers under adversarial interleavings must all return with their
// dependencies persistent, and the device must hold every committed byte.
func TestShuttleGroupCommit(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	body := func() {
		d, err := disk.New(disk.DefaultConfig())
		if err != nil {
			panic(err)
		}
		s := NewScheduler(d, Options{})
		const committers = 3
		handles := make([]vsync.Handle, committers)
		for i := 0; i < committers; i++ {
			i := i
			handles[i] = vsync.Go("committer", func() {
				dep := s.Write("w", disk.ExtentID(1+i), 0, []byte{byte(i), byte(i)})
				if err := s.Commit(dep, nil); err != nil {
					panic(err)
				}
				if !dep.IsPersistent() {
					panic("Commit returned before persistence")
				}
			})
		}
		for _, h := range handles {
			h.Join()
		}
		buf := make([]byte, 2)
		for i := 0; i < committers; i++ {
			if err := d.ReadAt(disk.ExtentID(1+i), 0, buf); err != nil {
				panic(err)
			}
			if buf[0] != byte(i) || buf[1] != byte(i) {
				panic("committed bytes missing from device")
			}
		}
	}
	rep := shuttle.Explore(shuttle.Options{Strategy: shuttle.NewRandom(42), Iterations: iters}, body)
	if rep.Failed() {
		t.Fatalf("shuttle found %d failures; first: %v", len(rep.Failures), rep.First())
	}
	t.Logf("explored %d interleavings, %d scheduling steps; lock checker saw up to %d lock instances and %d order edges per iteration",
		rep.Iterations, rep.TotalSteps, rep.LockInstances, rep.LockEdges)
}
