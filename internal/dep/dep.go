// Package dep implements ShardStore's soft-updates crash consistency
// machinery (§2.2 of the paper): run-time dependency graphs that declare
// valid write orderings, and the IO scheduler that enforces them.
//
// Every write to disk is enqueued as a writeback with a set of input
// dependencies. The contract (quoting the paper's append API) is that "the
// append will not be issued to disk until the input dependency has been
// persisted". The scheduler issues writebacks in dependency order, coalesces
// physically adjacent writes into single IOs, and tracks durability so that
// clients can poll Dependency.IsPersistent — the primitive on which the
// crash-consistency properties of §5 (persistence, forward progress) are
// specified and checked.
//
// Durability-seeking callers do not each pay a device flush: Commit enrolls
// the caller in the current commit group, and one leader drives issue+sync
// for the whole group (group commit). Readiness is tracked incrementally —
// each pending writeback carries a count of unresolved inputs, decremented
// as inputs become durable — so a scheduling round selects from a ready
// list instead of rescanning the whole queue.
package dep

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"

	"shardstore/internal/coverage"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// ErrUnboundFuture is returned by Pump when progress is blocked on a future
// dependency that was never bound (typically a staged-but-unflushed
// superblock record).
var ErrUnboundFuture = errors.New("dep: writeback waits on an unbound future dependency")

type wbState int

const (
	statePending    wbState = iota // enqueued, not yet written to the disk cache
	stateIssued                    // written to the disk's volatile cache
	stateDurable                   // synced; survives any crash
	stateSuperseded                // cancelled by an extent reset; persistence delegates to the superseding dependency
)

// writeback is one pending disk write.
type writeback struct {
	id    uint64
	label string
	ext   disk.ExtentID
	off   int
	data  []byte
	waits []*Dependency
	state wbState
	// supersededBy carries the persistence obligation of a cancelled
	// writeback: an extent reset evacuates (or legitimately supersedes) the
	// data, so the writeback's dependency is satisfied exactly when the
	// reset — which waits on the evacuations and reference updates — is
	// durable.
	supersededBy *Dependency

	// Incremental readiness tracking. nblock counts the unresolved inputs
	// (non-durable writebacks and unbound futures) registered at the last
	// classification; classGen invalidates registrations from earlier
	// classifications; inReady marks membership in the scheduler ready list.
	nblock   int
	classGen uint64
	inReady  bool
}

// blockRef records that a pending writeback was counting on some blocker
// (another writeback, or an unbound future) at classification generation gen.
// Stale refs — the waiter was reclassified or left statePending — are
// skipped when the blocker resolves.
type blockRef struct {
	wb  *writeback
	gen uint64
}

// Dependency is a node in the crash-consistency dependency graph. A
// Dependency is persistent once every writeback it transitively covers is
// durable on disk. Dependencies are created by Scheduler.Write, combined with
// And, and polled with IsPersistent (§2.2).
//
// Dependency values remain valid after a crash: they keep reporting the
// persistence status they had when the crash occurred, which is exactly what
// the §5 persistence check needs.
type Dependency struct {
	s *Scheduler // nil for the static resolved dependency

	wbs     []*writeback
	parents []*Dependency

	// future dependencies are placeholders handed out before the write they
	// cover exists (e.g. a batched superblock record). Bind attaches the
	// real dependency.
	future bool
	bound  *Dependency

	// persistMemo latches the monotonic answer. It is written under the
	// scheduler lock but read by IsPersistent's lock-free fast path.
	persistMemo atomic.Bool
}

// Resolved returns a dependency that is always persistent — the root of
// every dependency chain.
func Resolved() *Dependency { return resolvedDep }

var resolvedDep = func() *Dependency {
	d := &Dependency{}
	d.persistMemo.Store(true)
	return d
}()

// And combines d with others: the result is persistent only when d and all
// others are persistent. Combining dependencies from different schedulers is
// a programming error and panics.
func (d *Dependency) And(others ...*Dependency) *Dependency {
	parents := make([]*Dependency, 0, 1+len(others))
	s := d.s
	if d != resolvedDep {
		parents = append(parents, d)
	}
	for _, o := range others {
		if o == nil || o == resolvedDep {
			continue
		}
		if s == nil {
			s = o.s
		} else if o.s != nil && o.s != s {
			panic("dep: combining dependencies from different schedulers")
		}
		parents = append(parents, o)
	}
	if len(parents) == 0 {
		return resolvedDep
	}
	if len(parents) == 1 {
		return parents[0]
	}
	return &Dependency{s: s, parents: parents}
}

// All combines any number of dependencies; nil entries are ignored.
func All(deps ...*Dependency) *Dependency {
	out := Resolved()
	for _, d := range deps {
		if d != nil {
			out = out.And(d)
		}
	}
	return out
}

// IsPersistent reports whether every write covered by d is durable on disk.
// The result is monotonic: once true it stays true, even across a crash.
func (d *Dependency) IsPersistent() bool {
	if d == nil {
		return true
	}
	if d.persistMemo.Load() {
		return true
	}
	if d.s == nil {
		// Unbound future with no scheduler yet, or resolved.
		if d.future && d.bound == nil {
			return false
		}
	}
	s := d.scheduler()
	if s == nil {
		return d.computePersistent()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.computePersistent()
}

func (d *Dependency) scheduler() *Scheduler {
	if d.s != nil {
		return d.s
	}
	if d.bound != nil {
		return d.bound.scheduler()
	}
	return nil
}

// computePersistent assumes the scheduler lock is held (or no scheduler).
func (d *Dependency) computePersistent() bool {
	if d.persistMemo.Load() {
		return true
	}
	if d.future {
		if d.bound == nil || !d.bound.computePersistent() {
			return false
		}
		d.persistMemo.Store(true)
		return true
	}
	for _, wb := range d.wbs {
		switch wb.state {
		case stateDurable:
		case stateSuperseded:
			if wb.supersededBy == nil || !wb.supersededBy.computePersistent() {
				return false
			}
		default:
			return false
		}
	}
	for _, p := range d.parents {
		if !p.computePersistent() {
			return false
		}
	}
	d.persistMemo.Store(true)
	return true
}

// readyLocked reports whether every input dependency is persistent, i.e. the
// writeback may be issued. Caller holds the scheduler lock.
func (wb *writeback) readyLocked() (ready bool, unboundFuture bool) {
	for _, w := range wb.waits {
		if w.future && w.bound == nil && !w.persistMemo.Load() {
			return false, true
		}
		if !w.computePersistent() {
			return false, false
		}
	}
	return true, false
}

// WriteInfo describes one writeback covered by a dependency, for graph
// inspection (the Fig 2 experiment).
type WriteInfo struct {
	ID     uint64
	Label  string
	Extent disk.ExtentID
	Offset int
	Length int
}

// Edge is a dependency-graph edge: From must persist before To is issued.
type Edge struct{ From, To uint64 }

// Graph walks the dependency graph rooted at d and returns the covered
// writebacks and ordering edges. Used to regenerate Fig 2.
func (d *Dependency) Graph() (nodes []WriteInfo, edges []Edge) {
	s := d.scheduler()
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	seenDep := map[*Dependency]bool{}
	seenWB := map[uint64]bool{}
	var visitDep func(*Dependency)
	var visitWB func(*writeback)
	visitWB = func(wb *writeback) {
		if seenWB[wb.id] {
			return
		}
		seenWB[wb.id] = true
		nodes = append(nodes, WriteInfo{ID: wb.id, Label: wb.label, Extent: wb.ext, Offset: wb.off, Length: len(wb.data)})
		for _, w := range wb.waits {
			before := collectWBs(w, map[*Dependency]bool{})
			for _, b := range before {
				edges = append(edges, Edge{From: b.id, To: wb.id})
				visitWB(b)
			}
		}
	}
	visitDep = func(dd *Dependency) {
		if dd == nil || seenDep[dd] {
			return
		}
		seenDep[dd] = true
		for _, wb := range dd.wbs {
			visitWB(wb)
		}
		for _, p := range dd.parents {
			visitDep(p)
		}
		if dd.bound != nil {
			visitDep(dd.bound)
		}
	}
	visitDep(d)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return nodes, edges
}

func collectWBs(d *Dependency, seen map[*Dependency]bool) []*writeback {
	if d == nil || seen[d] {
		return nil
	}
	seen[d] = true
	out := append([]*writeback(nil), d.wbs...)
	for _, p := range d.parents {
		out = append(out, collectWBs(p, seen)...)
	}
	if d.bound != nil {
		out = append(out, collectWBs(d.bound, seen)...)
	}
	return out
}

// Stats counts scheduler activity.
type Stats struct {
	Enqueued     uint64
	Issued       uint64
	IOs          uint64 // physical WriteAt calls after coalescing
	Coalesced    uint64 // writebacks merged into a preceding IO
	Syncs        uint64
	WriteErrors  uint64
	MadeDurable  uint64
	PendingPeak  int
	DroppedCrash uint64
}

// schedMetrics holds the obs handles the scheduler hot paths touch, resolved
// once at construction. All handles are nil-safe, so a scheduler without an
// Obs meters nothing at zero cost.
type schedMetrics struct {
	o           *obs.Obs
	syncs       *obs.Counter
	ios         *obs.Counter
	coalesced   *obs.Counter
	commits     *obs.Counter
	followers   *obs.Counter
	groupSize   *obs.Histogram
	barrierWait *obs.Histogram
	barrierLead *obs.Histogram
}

func newSchedMetrics(o *obs.Obs) schedMetrics {
	return schedMetrics{
		o:           o,
		syncs:       o.Counter("sched.syncs"),
		ios:         o.Counter("sched.ios"),
		coalesced:   o.Counter("sched.coalesced"),
		commits:     o.Counter("sched.commits"),
		followers:   o.Counter("sched.commit_followers"),
		groupSize:   o.Histogram("sched.group_size"),
		barrierWait: o.Histogram("sched.barrier_wait"),
		barrierLead: o.Histogram("sched.barrier_wait_leader"),
	}
}

// Options configures optional scheduler integrations: metrics and the seeded
// fault set. The zero value disables both.
type Options struct {
	// Obs receives scheduler metrics: sched.syncs, sched.ios,
	// sched.coalesced, sched.commits, sched.commit_followers, and the
	// sched.group_size / sched.barrier_wait / sched.barrier_wait_leader
	// histograms (the latter pair splits barrier time by role: follower
	// enroll wait vs leader drive+sync time). Metering is count-only and
	// never changes scheduling decisions.
	Obs *obs.Obs
	// Bugs gates seeded faults (FaultGroupCommitTornBarrier).
	Bugs *faults.Set
}

// Scheduler owns the writeback queue for one disk and enforces dependency
// ordering (§2.2: "ShardStore's IO scheduler ensures that writebacks respect
// these dependencies").
type Scheduler struct {
	mu     vsync.Mutex
	d      *disk.Disk
	nextID uint64
	queue  []*writeback
	issued []*writeback // issued but not yet durable
	cov    *coverage.Registry
	stats  Stats

	// Incremental readiness: ready holds the pending writebacks whose every
	// input is persistent; blockers and futureWaiters are the reverse edges
	// along which durability/bind events decrement waiter nblock counts.
	// Both maps are only ever accessed by key (never iterated), so they add
	// no ordering nondeterminism.
	ready         []*writeback
	blockers      map[uint64][]blockRef
	futureWaiters map[*Dependency][]blockRef

	// crashEpoch guards the unlocked window of syncOutside: a crash that
	// interleaves with an in-flight device flush bumps the epoch, and the
	// flushed batch is then conservatively left non-durable.
	crashEpoch uint64

	// Group-commit barrier state, under its own lock so enrolment never
	// contends with the writeback queue.
	gmu        vsync.Mutex
	gcond      *vsync.Cond
	leaderBusy bool
	enrolled   int
	commitSeq  uint64

	bugs *faults.Set
	met  schedMetrics
}

// NewScheduler creates a scheduler over d with no optional integrations.
func NewScheduler(d *disk.Disk, cov *coverage.Registry) *Scheduler {
	return NewSchedulerOpts(d, cov, Options{})
}

// NewSchedulerOpts creates a scheduler over d with metrics and seeded-fault
// integrations.
func NewSchedulerOpts(d *disk.Disk, cov *coverage.Registry, opts Options) *Scheduler {
	s := &Scheduler{
		d:             d,
		cov:           cov,
		blockers:      map[uint64][]blockRef{},
		futureWaiters: map[*Dependency][]blockRef{},
		bugs:          opts.Bugs,
		met:           newSchedMetrics(opts.Obs),
	}
	s.gcond = vsync.NewCond(&s.gmu)
	return s
}

// Disk returns the underlying disk.
func (s *Scheduler) Disk() *disk.Disk { return s.d }

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Write enqueues a writeback of data to (ext, off) that may only be issued
// once every dependency in waits is persistent. It returns the dependency
// representing this write. label names the write in dependency-graph dumps.
// The data slice is copied; callers may reuse it.
func (s *Scheduler) Write(label string, ext disk.ExtentID, off int, data []byte, waits ...*Dependency) *Dependency {
	return s.enqueue(label, ext, off, append([]byte(nil), data...), waits)
}

// WriteOwned is Write without the defensive copy: ownership of data
// transfers to the scheduler, which may hold it until the write is durable
// and serve reads from it. Callers must not retain or mutate data afterwards.
// Layers that build a fresh buffer per write (chunk framing, superblock and
// LSM metadata records) use this to keep the value path copy-free.
func (s *Scheduler) WriteOwned(label string, ext disk.ExtentID, off int, data []byte, waits ...*Dependency) *Dependency {
	return s.enqueue(label, ext, off, data, waits)
}

func (s *Scheduler) enqueue(label string, ext disk.ExtentID, off int, data []byte, waits []*Dependency) *Dependency {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	wb := &writeback{
		id:    s.nextID,
		label: label,
		ext:   ext,
		off:   off,
		data:  data,
		waits: compactDeps(waits),
	}
	s.queue = append(s.queue, wb)
	s.stats.Enqueued++
	if len(s.queue) > s.stats.PendingPeak {
		s.stats.PendingPeak = len(s.queue)
	}
	s.classifyLocked(wb)
	d := &Dependency{s: s, wbs: []*writeback{wb}, parents: compactDeps(waits)}
	return d
}

func compactDeps(waits []*Dependency) []*Dependency {
	var out []*Dependency
	for _, w := range waits {
		if w != nil && w != resolvedDep {
			out = append(out, w)
		}
	}
	return out
}

// classifyLocked (re)derives wb's readiness: either every input is already
// persistent and wb joins the ready list, or a blockRef is registered on each
// unresolved input so the resolving event can decrement wb.nblock. Caller
// holds the lock.
func (s *Scheduler) classifyLocked(wb *writeback) {
	if wb.state != statePending || wb.inReady {
		return
	}
	wb.classGen++
	wb.nblock = 0
	seenDeps := map[*Dependency]bool{}
	seenWBs := map[uint64]bool{}
	var visit func(d *Dependency)
	visit = func(d *Dependency) {
		if d == nil || d.persistMemo.Load() || seenDeps[d] {
			return
		}
		seenDeps[d] = true
		if d.future {
			if d.bound == nil {
				wb.nblock++
				s.futureWaiters[d] = append(s.futureWaiters[d], blockRef{wb: wb, gen: wb.classGen})
				return
			}
			visit(d.bound)
			return
		}
		for _, b := range d.wbs {
			switch b.state {
			case stateDurable:
			case stateSuperseded:
				visit(b.supersededBy)
			default:
				if !seenWBs[b.id] {
					seenWBs[b.id] = true
					wb.nblock++
					s.blockers[b.id] = append(s.blockers[b.id], blockRef{wb: wb, gen: wb.classGen})
				}
			}
		}
		for _, p := range d.parents {
			visit(p)
		}
	}
	for _, w := range wb.waits {
		visit(w)
	}
	if wb.nblock == 0 {
		s.pushReadyLocked(wb)
	}
}

func (s *Scheduler) pushReadyLocked(wb *writeback) {
	if wb.inReady || wb.state != statePending {
		return
	}
	wb.inReady = true
	s.ready = append(s.ready, wb)
}

// filterReadyLocked drops writebacks that left statePending from the ready
// list (they were issued or superseded).
func (s *Scheduler) filterReadyLocked() {
	kept := s.ready[:0]
	for _, wb := range s.ready {
		if wb.state == statePending {
			kept = append(kept, wb)
			continue
		}
		wb.inReady = false
	}
	s.ready = kept
}

// notifyDurableLocked resolves id as a blocker: every valid registration on
// it has its unresolved-input count decremented, and waiters reaching zero
// join the ready list.
func (s *Scheduler) notifyDurableLocked(id uint64) {
	refs, ok := s.blockers[id]
	if !ok {
		return
	}
	delete(s.blockers, id)
	for _, r := range refs {
		if r.gen != r.wb.classGen || r.wb.state != statePending || r.wb.inReady {
			continue
		}
		r.wb.nblock--
		if r.wb.nblock <= 0 {
			s.pushReadyLocked(r.wb)
		}
	}
}

// reclassifyAllLocked re-derives readiness for every pending writeback not
// already on the ready list. It is the safety net for dependency transitions
// the incremental tracker cannot observe (a detached future bound outside
// the scheduler lock); scheduling only falls back to it when the ready list
// is empty while writebacks remain queued.
func (s *Scheduler) reclassifyAllLocked() {
	for _, wb := range s.queue {
		if !wb.inReady {
			s.classifyLocked(wb)
		}
	}
}

// issuableSortedLocked returns the ready writebacks in enqueue (id) order —
// the same order the per-round queue rescan used to yield, which keeps
// harness rng pairing stable. Caller holds the lock; the returned slice
// aliases the ready list.
func (s *Scheduler) issuableSortedLocked() []*writeback {
	if len(s.ready) == 0 && len(s.queue) > 0 {
		s.reclassifyAllLocked()
	}
	sort.Slice(s.ready, func(i, j int) bool { return s.ready[i].id < s.ready[j].id })
	return s.ready
}

// sawUnboundLocked reports whether any queued writeback is blocked on an
// unbound future (first-obstacle semantics, matching readyLocked).
func (s *Scheduler) sawUnboundLocked() bool {
	for _, wb := range s.queue {
		if _, unbound := wb.readyLocked(); unbound {
			return true
		}
	}
	return false
}

// ReadAt reads from the disk with the pending writeback queue overlaid, so
// reads observe writes that have been enqueued but not yet issued (the
// node's page-cache coherence: acknowledged writes are immediately readable
// regardless of writeback progress).
func (s *Scheduler) ReadAt(ext disk.ExtentID, off int, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.d.ReadAt(ext, off, buf); err != nil {
		return err
	}
	end := off + len(buf)
	for _, wb := range s.queue {
		if wb.ext != ext {
			continue
		}
		wbEnd := wb.off + len(wb.data)
		lo, hi := wb.off, wbEnd
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			copy(buf[lo-off:hi-off], wb.data[lo-wb.off:hi-wb.off])
		}
	}
	return nil
}

// Future returns an unbound placeholder dependency. It reports not-persistent
// until Bind attaches the real dependency. Futures let components hand out a
// dependency for a write that will be batched later (the superblock record).
func (s *Scheduler) Future() *Dependency {
	return &Dependency{s: s, future: true}
}

// NewDetachedFuture returns an unbound future dependency not tied to any
// scheduler. It is used by mock implementations (reference models) where
// persistence is immediate once bound.
func NewDetachedFuture() *Dependency { return &Dependency{future: true} }

// BindDetached binds a detached future created by NewDetachedFuture.
func BindDetached(future, real *Dependency) {
	if !future.future {
		panic("dep: BindDetached on non-future dependency")
	}
	if future.bound != nil {
		panic("dep: future already bound")
	}
	future.bound = real
}

// Bind attaches the real dependency to a future created by Future.
func (s *Scheduler) Bind(future, real *Dependency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !future.future {
		panic("dep: Bind on non-future dependency")
	}
	if future.bound != nil {
		panic("dep: future already bound")
	}
	future.bound = real
	refs, ok := s.futureWaiters[future]
	if !ok {
		return
	}
	delete(s.futureWaiters, future)
	for _, r := range refs {
		if r.gen == r.wb.classGen && r.wb.state == statePending && !r.wb.inReady {
			s.classifyLocked(r.wb)
		}
	}
}

// issueLocked writes the selected writebacks to the disk cache, coalescing
// physically adjacent writebacks into single IOs. Returns issued writebacks.
// Caller holds the lock. Writebacks whose write fails (injected IO errors)
// remain queued — and on the ready list — for retry.
func (s *Scheduler) issueLocked(batch []*writeback) []*writeback {
	if len(batch) == 0 {
		return nil
	}
	batch = append([]*writeback(nil), batch...)
	// Sort the batch by physical position so adjacent writes coalesce.
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].ext != batch[j].ext {
			return batch[i].ext < batch[j].ext
		}
		return batch[i].off < batch[j].off
	})

	var issued []*writeback
	for i := 0; i < len(batch); {
		run := []*writeback{batch[i]}
		j := i + 1
		for j < len(batch) && batch[j].ext == batch[i].ext &&
			batch[j].off == run[len(run)-1].off+len(run[len(run)-1].data) {
			run = append(run, batch[j])
			j++
		}
		issued = append(issued, s.writeRunLocked(run)...)
		i = j
	}
	if len(issued) > 0 {
		issuedSet := make(map[uint64]bool, len(issued))
		for _, wb := range issued {
			issuedSet[wb.id] = true
		}
		remaining := s.queue[:0]
		for _, wb := range s.queue {
			if !issuedSet[wb.id] {
				remaining = append(remaining, wb)
			}
		}
		s.queue = remaining
		s.filterReadyLocked()
		s.issued = append(s.issued, issued...)
	}
	return issued
}

// writeRunLocked issues one coalesced run and returns the writebacks that
// made it into the disk cache. A failing multi-writeback run is bisected and
// the halves retried independently, so a single bad page does not re-defer
// unrelated adjacent writebacks (a transient fault is consumed by the failed
// attempt, so the survivors usually land within the same round).
//
// A lone writeback's data goes to the device as it is: WriteAt copies what
// it is given into its page images and keeps nothing, so the writeback goes
// on owning the slice (a failed write is retried from it). Only a coalesced
// run needs a buffer of its own, sized once to the run's total.
func (s *Scheduler) writeRunLocked(run []*writeback) []*writeback {
	buf := run[0].data
	if len(run) > 1 {
		total := 0
		for _, wb := range run {
			total += len(wb.data)
		}
		buf = make([]byte, 0, total)
		for _, wb := range run {
			buf = append(buf, wb.data...)
		}
	}
	if err := s.d.WriteAt(run[0].ext, run[0].off, buf); err != nil {
		s.stats.WriteErrors++
		s.cov.Hit("sched.write_error")
		if len(run) == 1 {
			// Leave it queued; transient failures clear and the writeback
			// is retried on the next pump.
			return nil
		}
		s.cov.Hit("sched.run_split")
		mid := len(run) / 2
		issued := s.writeRunLocked(run[:mid])
		return append(issued, s.writeRunLocked(run[mid:])...)
	}
	s.stats.IOs++
	s.met.ios.Inc()
	if len(run) > 1 {
		s.stats.Coalesced += uint64(len(run) - 1)
		s.met.coalesced.Add(uint64(len(run) - 1))
		s.cov.Hit("sched.coalesced")
	}
	for _, wb := range run {
		wb.state = stateIssued
		s.stats.Issued++
	}
	return run
}

// markDurableLocked transitions batch to durable and notifies readiness
// waiters. Caller holds the lock.
func (s *Scheduler) markDurableLocked(batch []*writeback) {
	for _, wb := range batch {
		wb.state = stateDurable
		// Durable writebacks never serve reads (the overlay only scans the
		// pending queue) and never re-issue; releasing their payloads keeps
		// long-lived dependency graphs from retaining the whole write
		// history.
		wb.data = nil
		wb.waits = nil
		s.stats.MadeDurable++
	}
	for _, wb := range batch {
		s.notifyDurableLocked(wb.id)
	}
}

// syncOutside makes all issued writebacks durable, holding the scheduler
// lock only to snapshot and to apply the outcome — the device flush itself
// runs unlocked, so reads of already-issued data (and new enqueues) proceed
// during the sync.
func (s *Scheduler) syncOutside() error {
	s.mu.Lock()
	batch := s.issued
	s.issued = nil
	epoch := s.crashEpoch
	s.mu.Unlock()

	err := s.d.Sync()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashEpoch != epoch {
		// A crash raced the flush. Whatever the flush landed is in the
		// durable image, but these writebacks may have been torn — leave
		// them non-durable (persistence stays conservative and monotonic).
		return err
	}
	if err != nil {
		s.issued = append(batch, s.issued...)
		return err
	}
	s.stats.Syncs++
	s.met.syncs.Inc()
	s.markDurableLocked(batch)
	return nil
}

// commitSyncOutside is the group leader's sync step. With the seeded
// FaultGroupCommitTornBarrier it reports the group durable without flushing
// the device — a torn barrier the §5 persistence check must catch after a
// crash.
func (s *Scheduler) commitSyncOutside() error {
	if s.bugs.Enabled(faults.FaultGroupCommitTornBarrier) {
		s.mu.Lock()
		batch := s.issued
		s.issued = nil
		s.markDurableLocked(batch)
		s.mu.Unlock()
		s.cov.Hit("sched.fault.torn_barrier")
		return nil
	}
	return s.syncOutside()
}

// Step performs one scheduler round: issue every currently-issuable
// writeback to the disk cache, without syncing. Data issued by Step can be
// torn by a crash at page granularity — this is where the interesting
// soft-updates crash states come from. It returns the number of writebacks
// issued.
func (s *Scheduler) Step() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A writeback only becomes issuable once its inputs are *durable*, so
	// issuing without syncing is safe: everything in the current ready batch
	// is mutually unordered.
	return len(s.issueLocked(s.issuableSortedLocked()))
}

// Sync flushes the disk write cache, making all issued writebacks durable.
// The device flush runs outside the scheduler critical section.
func (s *Scheduler) Sync() error {
	return s.syncOutside()
}

// Pump drives the scheduler to quiescence: repeatedly issue all issuable
// writebacks and sync, until nothing is left or no progress can be made.
// It returns ErrUnboundFuture if the only obstacle to progress is a future
// dependency that was never bound, and nil if the queue drained.
func (s *Scheduler) Pump() error {
	return s.drive(nil, s.syncOutside)
}

// drive is the scheduler's issue+sync loop, shared by Pump and the group
// leader. Each round issues one topological level (the ready list — all
// mutually unordered) as coalesced batches, then syncs via syncFn with the
// scheduler lock released. A non-nil stop short-circuits the loop once the
// caller's durability goal is met.
func (s *Scheduler) drive(stop func() bool, syncFn func() error) error {
	failedRounds := 0
	for {
		if stop != nil && stop() {
			return nil
		}
		s.mu.Lock()
		batch := append([]*writeback(nil), s.issuableSortedLocked()...)
		if len(batch) == 0 {
			hasIssued := len(s.issued) > 0
			queued := len(s.queue)
			sawUnbound := false
			if !hasIssued && queued > 0 {
				sawUnbound = s.sawUnboundLocked()
			}
			s.mu.Unlock()
			if hasIssued {
				if err := syncFn(); err != nil {
					return err
				}
				continue
			}
			if queued == 0 {
				return nil
			}
			if sawUnbound {
				return ErrUnboundFuture
			}
			// Blocked on a dependency that cannot progress (e.g. writes to a
			// permanently failed extent). Leave the queue intact.
			return fmt.Errorf("dep: %d writebacks blocked (IO failures?)", queued)
		}
		issued := s.issueLocked(batch)
		if len(issued) == 0 {
			// Every issuable writeback failed to write (injected faults).
			// Transient failures clear on their first hit, so retry a few
			// rounds before giving up (permanent failures stay blocked).
			hasIssued := len(s.issued) > 0
			queued := len(s.queue)
			s.mu.Unlock()
			if hasIssued {
				if err := syncFn(); err != nil {
					return err
				}
				continue
			}
			failedRounds++
			if failedRounds > 4 {
				return fmt.Errorf("dep: write failures blocked %d writebacks", queued)
			}
			continue
		}
		failedRounds = 0
		s.mu.Unlock()
		if err := syncFn(); err != nil {
			return err
		}
	}
}

// Commit drives the scheduler until d is persistent, amortizing device
// flushes across concurrent callers: if a commit is already in flight the
// caller enrolls in the current group and sleeps on the barrier; otherwise
// it becomes the leader and drives issue+sync rounds for everyone enrolled —
// one disk.Sync per dependency level regardless of how many callers wait.
//
// bind, if non-nil, is invoked by the leader before driving and again if an
// unbound future still blocks d; it must bind the futures d transitively
// waits on (e.g. by flushing the index memtable and the superblock record),
// and doing so for the leader binds them for every enrolled follower from
// the same generation — the shared flush barrier.
//
// d must come from this scheduler. All barrier synchronization goes through
// vsync, so shuttle explorations interleave leaders, followers, and crashes
// deterministically.
func (s *Scheduler) Commit(d *Dependency, bind func() error) error {
	return s.CommitTraced(d, bind, nil)
}

// CommitTraced is Commit with an optional request span: each enrollment
// period lands on sp as a sched.barrier_wait stage (detail "follower"), and
// the leader's coalesced sync rounds land as disk.sync_wait stages carrying
// the group size — the per-request view of where a durable ack's time went.
// A nil sp meters exactly like Commit; the span never influences scheduling.
func (s *Scheduler) CommitTraced(d *Dependency, bind func() error, sp *obs.Span) error {
	if d == nil || d.IsPersistent() {
		return nil
	}
	s.met.commits.Inc()
	for {
		s.gmu.Lock()
		if s.leaderBusy {
			start := s.met.o.Now()
			spStart := sp.Now()
			seq := s.commitSeq
			s.enrolled++
			for s.leaderBusy && s.commitSeq == seq {
				s.gcond.Wait()
			}
			s.enrolled--
			s.gmu.Unlock()
			sp.Stage(obs.StageBarrierWait, spStart, "follower")
			if d.IsPersistent() {
				s.met.followers.Inc()
				s.met.barrierWait.Observe(s.met.o.Now() - start)
				s.cov.Hit("sched.commit_follower")
				return nil
			}
			continue
		}
		s.leaderBusy = true
		s.gmu.Unlock()
		leadStart := s.met.o.Now()
		err := s.commitLead(d, bind, sp)
		s.met.barrierLead.Observe(s.met.o.Now() - leadStart)
		s.gmu.Lock()
		s.leaderBusy = false
		s.commitSeq++
		s.gcond.Broadcast()
		s.gmu.Unlock()
		return err
	}
}

// commitLead is the group leader's loop: bind futures, then drive issue+sync
// rounds until d is persistent, publishing each completed sync to the
// barrier so satisfied followers wake without waiting for the leader's own
// goal.
func (s *Scheduler) commitLead(d *Dependency, bind func() error, sp *obs.Span) error {
	stop := func() bool { return d.IsPersistent() }
	syncFn := func() error {
		spStart := sp.Now()
		if err := s.commitSyncOutside(); err != nil {
			return err
		}
		s.gmu.Lock()
		size := 1 + s.enrolled
		s.commitSeq++
		s.gcond.Broadcast()
		s.gmu.Unlock()
		s.met.groupSize.Observe(uint64(size))
		if sp != nil {
			sp.Stage(obs.StageDiskSync, spStart, fmt.Sprintf("leader group=%d", size))
		}
		if size > 1 {
			s.cov.Hit("sched.group_commit")
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		if d.IsPersistent() {
			return nil
		}
		if bind != nil {
			if err := bind(); err != nil {
				return err
			}
		}
		err := s.drive(stop, syncFn)
		if d.IsPersistent() {
			return err
		}
		if err == nil {
			// The queue drained but d still waits on an unbound future that
			// blocks no writeback (e.g. a staged superblock pointer).
			err = ErrUnboundFuture
		}
		if bind == nil || !errors.Is(err, ErrUnboundFuture) || attempt >= 3 {
			return err
		}
		// bind itself may stage further futures (an index flush stages new
		// superblock pointers); bind and drive again.
	}
}

// StepRandom issues a random subset of the currently-issuable writebacks —
// used by harnesses to explore more intermediate states than Step's
// everything-at-once policy.
func (s *Scheduler) StepRandom(rng *rand.Rand) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cands := s.issuableSortedLocked()
	var pick []*writeback
	for _, wb := range cands {
		if rng.Intn(2) == 0 {
			pick = append(pick, wb)
		}
	}
	if len(pick) == 0 && len(cands) > 0 {
		pick = cands[:1]
	}
	return len(s.issueLocked(pick))
}

// CancelExtentPending removes every queued (not yet issued) writeback
// targeting ext, marking each as superseded by supersede. An extent reset
// calls this: data still buffered for a reset extent must not be written
// into the reclaimed space later, and its durability obligation transfers
// to the reset (which is ordered after the evacuations and the reference
// updates that superseded the data). It returns the number of cancellations.
func (s *Scheduler) CancelExtentPending(ext disk.ExtentID, supersede *Dependency) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.queue[:0]
	var cancelled []*writeback
	for _, wb := range s.queue {
		if wb.ext == ext {
			wb.state = stateSuperseded
			wb.supersededBy = supersede
			cancelled = append(cancelled, wb)
			continue
		}
		kept = append(kept, wb)
	}
	s.queue = kept
	if len(cancelled) == 0 {
		return 0
	}
	s.filterReadyLocked()
	// Anything counting on a cancelled writeback re-derives its readiness:
	// the walk now follows the superseding dependency instead.
	for _, wb := range cancelled {
		refs, ok := s.blockers[wb.id]
		if !ok {
			continue
		}
		delete(s.blockers, wb.id)
		for _, r := range refs {
			if r.gen == r.wb.classGen && r.wb.state == statePending && !r.wb.inReady {
				s.classifyLocked(r.wb)
			}
		}
	}
	s.cov.Hit("sched.cancelled")
	return len(cancelled)
}

// Crash discards all pending writebacks (they lived only in memory) and
// tears the disk cache via disk.Crash. Dependencies keep their pre-crash
// persistence status. The scheduler is unusable afterwards; recovery builds
// a fresh one on the same disk.
func (s *Scheduler) Crash(rng *rand.Rand) (kept, lost []disk.PageAddr) {
	s.mu.Lock()
	s.dropAllLocked()
	s.mu.Unlock()
	return s.d.Crash(rng)
}

// CrashKeep is the deterministic crash used by the exhaustive block-level
// enumerator.
func (s *Scheduler) CrashKeep(keep func(disk.PageAddr) bool) (kept, lost []disk.PageAddr) {
	s.mu.Lock()
	s.dropAllLocked()
	s.mu.Unlock()
	return s.d.CrashKeep(keep)
}

// dropAllLocked empties the scheduler for a crash: pending and issued
// writebacks are dropped, readiness tracking is reset, and the crash epoch
// invalidates any sync that is concurrently in flight.
func (s *Scheduler) dropAllLocked() {
	s.crashEpoch++
	s.stats.DroppedCrash += uint64(len(s.queue))
	s.queue = nil
	s.issued = nil
	s.ready = nil
	s.blockers = map[uint64][]blockRef{}
	s.futureWaiters = map[*Dependency][]blockRef{}
}

// PendingCount returns the number of enqueued-but-unissued writebacks.
func (s *Scheduler) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// IssuedCount returns the number of issued-but-not-durable writebacks.
func (s *Scheduler) IssuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.issued)
}

// DumpBlocked describes the queued writebacks and why each is not issuable
// (debugging aid).
func (s *Scheduler) DumpBlocked() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, wb := range s.queue {
		ready, unbound := wb.readyLocked()
		fmt.Fprintf(&b, "wb#%d %q e%d+%d:%d ready=%v unboundFuture=%v\n", wb.id, wb.label, wb.ext, wb.off, len(wb.data), ready, unbound)
		for i, w := range wb.waits {
			fmt.Fprintf(&b, "   wait[%d] persistent=%v %s\n", i, w.computePersistent(), describeDep(w, 0))
		}
	}
	return b.String()
}

func describeDep(d *Dependency, depth int) string {
	if depth > 6 {
		return "..."
	}
	if d == nil || d == resolvedDep {
		return "resolved"
	}
	if d.future {
		if d.bound == nil {
			return "future(unbound)"
		}
		return "future->" + describeDep(d.bound, depth+1)
	}
	out := ""
	for _, wb := range d.wbs {
		st := map[wbState]string{statePending: "pending", stateIssued: "issued", stateDurable: "durable", stateSuperseded: "superseded"}[wb.state]
		out += fmt.Sprintf("wb#%d(%s,%s)", wb.id, wb.label, st)
		if wb.state == stateSuperseded {
			out += "->" + describeDep(wb.supersededBy, depth+1)
		}
	}
	for _, p := range d.parents {
		if !p.computePersistent() {
			out += "{" + describeDep(p, depth+1) + "}"
		}
	}
	return out
}

// DumpGraph renders the dependency graph rooted at d as indented text, for
// examples and debugging.
func DumpGraph(d *Dependency) string {
	nodes, edges := d.Graph()
	var b strings.Builder
	byID := map[uint64]WriteInfo{}
	for _, n := range nodes {
		byID[n.ID] = n
	}
	for _, n := range nodes {
		fmt.Fprintf(&b, "wb#%d %-28s extent %d [%d,%d)\n", n.ID, n.Label, n.Extent, n.Offset, n.Offset+n.Length)
		for _, e := range edges {
			if e.To == n.ID {
				from := byID[e.From]
				fmt.Fprintf(&b, "  after wb#%d %s\n", e.From, from.Label)
			}
		}
	}
	return b.String()
}
