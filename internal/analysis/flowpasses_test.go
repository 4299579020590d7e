package analysis_test

import (
	"testing"

	"shardstore/internal/analysis"
)

// Fixtures for the flow-aware passes, following the PR 4 pattern: each pass
// gets at least one seeded true positive, one suppressed-with-reason
// finding, and one out-of-scope negative, compiled in-memory against the
// overlay. The fake vsync/disk packages stand in for the real ones so the
// fixtures never depend on the tree's state.

var fakeVsync = map[string]string{
	"vsync.go": `package vsync

type Mutex struct{}

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return true }

type RWMutex struct{}

func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}
func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}

type Cond struct{ L *Mutex }

func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

func (c *Cond) Wait()      {}
func (c *Cond) Signal()    {}
func (c *Cond) Broadcast() {}
`,
}

var fakeDisk = map[string]string{
	"disk.go": `package disk

type Disk struct{}

func New(pages int) (*Disk, error)              { return &Disk{}, nil }
func (d *Disk) Sync() error                     { return nil }
func (d *Disk) WriteAt(off int, b []byte) error { return nil }
`,
}

var flowExtras = map[string]map[string]string{
	"shardstore/internal/vsync": fakeVsync,
	"shardstore/internal/disk":  fakeDisk,
}

func TestUnlockPathFixture(t *testing.T) {
	runFixture(t, analysis.UnlockPath, "shardstore/internal/store", map[string]string{
		"fix.go": `package store

import "shardstore/internal/vsync"

type box struct {
	mu vsync.Mutex
	rw vsync.RWMutex
}

func leakOnEarlyReturn(b *box, fail bool) bool {
	b.mu.Lock()
	if fail {
		return false // want "return in internal/store.leakOnEarlyReturn is still holding internal/store.box.mu"
	}
	b.mu.Unlock()
	return true
}

func deferredIsClean(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
}

func conditionalDeferIsClean(b *box) {
	if b != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
}

func deferredClosureIsClean(b *box) {
	b.mu.Lock()
	defer func() {
		b.mu.Unlock()
	}()
}

func tryLockIsClean(b *box) bool {
	if b.mu.TryLock() {
		defer b.mu.Unlock()
		return true
	}
	return false
}

func callerHoldsConvention(b *box) { // the *Locked convention: no obligation
	b.mu.Unlock()
}

func doubleLock(b *box) {
	b.mu.Lock()
	b.mu.Lock() // want "internal/store.box.mu acquired again while already held"
	b.mu.Unlock()
	b.mu.Unlock()
}

func wrongMode(b *box) {
	b.rw.Lock()
	b.rw.RUnlock() // want "RUnlock of internal/store.box.rw, which is held exclusively"
}

func panicsWhileHolding(b *box) {
	b.mu.Lock()
	if b == nil {
		panic("invariant") // want "panic in internal/store.panicsWhileHolding is still holding internal/store.box.mu"
	}
	b.mu.Unlock()
}

func leakThroughLoop(b *box, n int) {
	for i := 0; i < n; i++ { // want "loop iteration ends in internal/store.leakThroughLoop still holding internal/store.box.mu"
		b.mu.Lock()
	}
} // want "end of function in internal/store.leakThroughLoop may be still holding internal/store.box.mu"

func waivedHandoff(b *box) {
	b.mu.Lock()
	//shardlint:allow unlockpath fixture waiver: ownership hands off to the flush goroutine
	return
}
`,
		"fix_test.go": `package store

import "shardstore/internal/vsync"

func leakInTestFile(mu *vsync.Mutex) {
	mu.Lock() // test files are out of the lock-discipline scope: not flagged
}
`,
	}, flowExtras)
}

// TestUnlockPathOutOfScope: the identical leak outside the durable-path
// package set reports nothing.
func TestUnlockPathOutOfScope(t *testing.T) {
	runFixture(t, analysis.UnlockPath, "shardstore/internal/experiments", map[string]string{
		"fix.go": `package experiments

import "shardstore/internal/vsync"

func leak(mu *vsync.Mutex, fail bool) bool {
	mu.Lock()
	if fail {
		return false
	}
	mu.Unlock()
	return true
}
`,
	}, flowExtras)
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, analysis.LockOrder, "shardstore/internal/chunk", map[string]string{
		"fix.go": `package chunk

import (
	"shardstore/internal/disk"
	"shardstore/internal/vsync"
)

type left struct{ mu vsync.Mutex }

type right struct{ mu vsync.Mutex }

func lockLR(l *left, r *right) {
	l.mu.Lock()
	r.mu.Lock() // want "lock-order cycle: internal/chunk.left.mu -> internal/chunk.right.mu"
	r.mu.Unlock()
	l.mu.Unlock()
}

func lockRL(l *left, r *right) {
	r.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.Unlock()
}

func sendUnderLock(l *left, ch chan int) {
	l.mu.Lock()
	ch <- 1 // want "channel send while holding internal/chunk.left.mu"
	l.mu.Unlock()
}

func recvAfterUnlockIsClean(l *left, ch chan int) int {
	l.mu.Lock()
	l.mu.Unlock()
	return <-ch
}

func syncUnderLock(l *left, d *disk.Disk) {
	l.mu.Lock()
	_ = d.Sync() // want "disk.Sync while holding internal/chunk.left.mu"
	l.mu.Unlock()
}

func syncHelper(d *disk.Disk) { _ = d.Sync() }

func syncViaCallee(l *left, d *disk.Disk) {
	l.mu.Lock()
	syncHelper(d) // want "holds internal/chunk.left.mu across call to internal/chunk.syncHelper, which may reach disk.Sync"
	l.mu.Unlock()
}

type waiter struct {
	mu    vsync.Mutex
	cond  *vsync.Cond
	ready bool
}

func newWaiter() *waiter {
	w := &waiter{}
	w.cond = vsync.NewCond(&w.mu)
	return w
}

func waitHoldingOwnLockIsClean(w *waiter) {
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func waitHoldingOther(w *waiter, l *left) {
	l.mu.Lock()
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait() // want "holds internal/chunk.left.mu across internal/chunk.waiter.cond.Wait"
	}
	w.mu.Unlock()
	l.mu.Unlock()
}

func waitWithoutLock(w *waiter) {
	w.mu.Lock()
	w.mu.Unlock()
	w.cond.Wait() // want "internal/chunk.waiter.cond.Wait without holding its lock internal/chunk.waiter.mu"
}

func waitLockedHelper(w *waiter) { // caller holds w.mu: not flagged
	for !w.ready {
		w.cond.Wait()
	}
}

func waivedSend(l *left, ch chan int) {
	l.mu.Lock()
	ch <- 1 //shardlint:allow lockorder fixture waiver: consumer is wait-free by construction
	l.mu.Unlock()
}
`,
	}, flowExtras)
}

// TestLockOrderOutOfScope: blocking under a lock outside the scoped package
// set reports nothing.
func TestLockOrderOutOfScope(t *testing.T) {
	runFixture(t, analysis.LockOrder, "shardstore/internal/experiments", map[string]string{
		"fix.go": `package experiments

import "shardstore/internal/vsync"

func sendUnderLock(mu *vsync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
	}, flowExtras)
}

func TestStageVocabFixture(t *testing.T) {
	runFixture(t, analysis.StageVocab, "shardstore/internal/obs", map[string]string{
		"fix.go": `package obs

const (
	StageQueueWait    = "rpc.queue_wait"
	StageInterference = "compact.interference"
)

type Span struct{}

func (sp *Span) Stage(name string, start uint64, detail string) {}

type Registry struct{}

func (r *Registry) Counter(name string) int   { return 0 }
func (r *Registry) Gauge(name string) int     { return 0 }
func (r *Registry) Histogram(name string) int { return 0 }

func use(sp *Span, r *Registry, dyn string) {
	sp.Stage(StageQueueWait, 0, "")
	sp.Stage("store.put", 0, "")
	sp.Stage("rpc.bogus_wait", 0, "") // want "not in the documented obs vocabulary"
	sp.Stage(StageInterference, 0, "") // want "documented as not a stage"
	sp.Stage(dyn, 0, "") // want "not a compile-time constant"
	//shardlint:allow stagevocab fixture waiver demonstrating the suppression path
	sp.Stage("rpc.waived_wait", 0, "")

	_ = r.Counter("rpc.requests")
	_ = r.Histogram("rpc.requests") // want "registered as a histogram here but as a counter"
	_ = r.Gauge("Bad-Name") // want "not well-formed"
}
`,
		"fix_test.go": `package obs

func stageInTest(sp *Span) {
	sp.Stage("late", 0, "") // test files may use ad-hoc stage names: not flagged
}
`,
	}, nil)
}

func TestObsCompleteFixture(t *testing.T) {
	runFixture(t, analysis.ObsComplete, "shardstore/internal/rpc", map[string]string{
		"fix.go": `package rpc

type Opcode uint8

const (
	opInvalid Opcode = 0
	opPut     Opcode = 1
	opGet     Opcode = 2
	opTrace   Opcode = 3 // want "opTrace = 3 exceeds opMax" // want "opTrace = 3 has no opName case" // want "opTrace = 3 has no dispatchInner case"
	opSlow    Opcode = 4 //shardlint:allow obscomplete staged rollout fixture: wire enablement follows

	opMax = opGet
)

func opName(op Opcode) string {
	switch op {
	case opPut:
		return "put"
	case opGet:
		return "get"
	}
	return "unknown"
}

type reg struct{}

func (reg) Histogram(name string) int { return 0 }

func register(r reg) {
	for op := opPut; op <= opMax; op++ {
		_ = r.Histogram("rpc.lat")
		_ = op
	}
}

func dispatchInner(op Opcode) int {
	switch op {
	case opPut:
		return 1
	case opGet:
		return 2
	}
	return 0
}
`,
	}, nil)
}

// TestObsCompleteOutOfScope: an opcode-shaped package anywhere but
// internal/rpc is not this pass's business.
func TestObsCompleteOutOfScope(t *testing.T) {
	runFixture(t, analysis.ObsComplete, "shardstore/internal/experiments", map[string]string{
		"fix.go": `package experiments

type Opcode uint8

const (
	opPut Opcode = 1
	opMax       = opPut
)
`,
	}, nil)
}
