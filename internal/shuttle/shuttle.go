// Package shuttle is a stateless model checker for concurrent Go code, the
// reproduction of the Shuttle/Loom tools the paper uses for §6. It executes
// a test body whose threads are spawned with vsync.Go and synchronized with
// vsync primitives, serializing execution so that exactly one virtual thread
// runs at a time, and explores different interleavings across iterations:
//
//   - Random: uniformly random scheduling decisions (Shuttle's default);
//   - PCT: probabilistic concurrency testing [Burckhardt et al., ASPLOS'10],
//     with d-1 priority change points, the algorithm the paper cites;
//   - DFS: bounded exhaustive enumeration of all interleavings, the sound
//     Loom-style mode for small harnesses.
//
// The checker detects assertion failures (panics in the body), deadlocks
// (all live threads blocked), and step-bound livelocks, and reports a replay
// trace: the exact sequence of scheduling choices, which the Fixed strategy
// replays deterministically.
package shuttle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shardstore/internal/vsync"
)

// threadState enumerates virtual thread states.
type threadState int

const (
	stateRunnable threadState = iota
	stateBlockedMutex
	stateBlockedCond
	stateBlockedJoin
	stateDone
)

type resumeMsg int

const (
	msgRun resumeMsg = iota
	msgAbort
)

// thread is one virtual thread.
type thread struct {
	id     int
	name   string
	state  threadState
	resume chan resumeMsg

	waitMutex *mutexState // when stateBlockedMutex
	waitRW    *rwState
	waitRead  bool // blocked for read access on waitRW
	waitCond  *condState
	waitJoin  *thread

	joiners []*thread

	held      []hold // locks held, in acquisition order
	spawnedAt site

	// pctPriority is the thread priority under the PCT strategy.
	pctPriority int
}

// event is what a running worker reports back to the scheduler.
type event struct {
	kind     eventKind
	panicErr any
}

type eventKind int

const (
	evYield eventKind = iota // thread hit a schedule point (possibly blocked)
	evDone                   // thread body returned
	evPanic                  // thread body panicked
)

type abortSentinel struct{}

// mutexState is the per-run state attached to a vsync.Mutex.
type mutexState struct {
	lockNode
	runID   uint64
	holder  *thread
	waiters []*thread
}

// rwState is the per-run state attached to a vsync.RWMutex.
type rwState struct {
	lockNode
	runID   uint64
	writer  *thread
	readers int
	waiters []*thread
}

// condState is the per-run state attached to a vsync.Cond.
type condState struct {
	runID   uint64
	waiters []*thread
}

// scheduler runs one iteration. It implements vsync.Runtime.
type scheduler struct {
	runID    uint64
	strategy Strategy
	maxSteps int

	threads  []*thread
	runnable []*thread // runnableThreads' buffer, reused every step
	current  *thread
	events   chan event
	wg       sync.WaitGroup

	steps   int
	trace   []int // chosen runnable-index at every scheduling decision
	nextID  int
	failure *Failure

	// Lock-discipline state (lockcheck.go).
	locks, edges int    // lock instances and order edges seen
	violation    string // the first violation
	halt         bool   // violation ends the iteration at the next event
	sites        bool   // capture lock-operation stacks (replays only)

	// aborted is set when the iteration is being torn down. Worker threads
	// unwind via panic(abortSentinel); any vsync calls their deferred
	// functions make during unwinding (or from threads racing the teardown)
	// become no-ops — the iteration's state is discarded anyway, and the
	// scheduler is no longer reading events.
	aborted atomic.Bool
}

var _ vsync.Runtime = (*scheduler)(nil)

// park hands control back to the scheduler and waits to be resumed. Must be
// called by the current thread.
func (s *scheduler) park(t *thread) {
	s.events <- event{kind: evYield}
	if msg := <-t.resume; msg == msgAbort {
		panic(abortSentinel{})
	}
}

// yieldPoint is a schedule point where t stays runnable.
func (s *scheduler) yieldPoint(t *thread) {
	t.state = stateRunnable
	s.park(t)
}

// currentThread returns the running thread; only the running thread calls
// into the scheduler, so no locking is needed.
func (s *scheduler) currentThread() *thread {
	if s.current == nil {
		panic("shuttle: vsync call from outside a model-checked thread")
	}
	return s.current
}

func (s *scheduler) mutexState(m *vsync.Mutex) *mutexState {
	if st, ok := m.Sched.(*mutexState); ok && st.runID == s.runID {
		return st
	}
	st := &mutexState{runID: s.runID}
	m.Sched = st
	s.locks++
	return st
}

func (s *scheduler) rwStateOf(m *vsync.RWMutex) *rwState {
	if st, ok := m.Sched.(*rwState); ok && st.runID == s.runID {
		return st
	}
	st := &rwState{runID: s.runID}
	m.Sched = st
	s.locks++
	return st
}

func (s *scheduler) condStateOf(c *vsync.Cond) *condState {
	if st, ok := c.Sched.(*condState); ok && st.runID == s.runID {
		return st
	}
	st := &condState{runID: s.runID}
	c.Sched = st
	return st
}

// MutexLock implements vsync.Runtime.
func (s *scheduler) MutexLock(m *vsync.Mutex) {
	if s.aborted.Load() {
		return
	}
	t, at := s.currentThread(), s.callerSite()
	s.yieldPoint(t) // racing threads can interleave before the acquire
	st := s.mutexState(m)
	s.checkReentry(t, &st.lockNode, at)
	for st.holder != nil {
		t.state = stateBlockedMutex
		t.waitMutex = st
		st.waiters = append(st.waiters, t)
		s.park(t)
		t.waitMutex = nil
	}
	st.holder = t
	s.acquired(t, &st.lockNode, false, at)
}

// MutexTryLock implements vsync.Runtime.
func (s *scheduler) MutexTryLock(m *vsync.Mutex) bool {
	if s.aborted.Load() {
		return true
	}
	t, at := s.currentThread(), s.callerSite()
	s.yieldPoint(t)
	st := s.mutexState(m)
	if st.holder != nil {
		return false
	}
	st.holder = t
	s.acquired(t, &st.lockNode, true, at)
	return true
}

// MutexUnlock implements vsync.Runtime.
func (s *scheduler) MutexUnlock(m *vsync.Mutex) {
	if s.aborted.Load() {
		return
	}
	t := s.currentThread()
	st := s.mutexState(m)
	if st.holder != t {
		panic(fmt.Sprintf("shuttle: unlock of mutex not held by %s", t.name))
	}
	t.release(&st.lockNode)
	st.holder, st.released = nil, s.callerSite()
	for _, w := range st.waiters {
		w.state = stateRunnable
	}
	st.waiters = nil
}

// RLock implements vsync.Runtime.
func (s *scheduler) RLock(m *vsync.RWMutex) {
	if s.aborted.Load() {
		return
	}
	t, at := s.currentThread(), s.callerSite()
	s.yieldPoint(t)
	st := s.rwStateOf(m)
	s.checkReentry(t, &st.lockNode, at)
	for st.writer != nil {
		t.state = stateBlockedMutex
		t.waitRW = st
		t.waitRead = true
		st.waiters = append(st.waiters, t)
		s.park(t)
		t.waitRW = nil
	}
	st.readers++
	s.acquired(t, &st.lockNode, false, at)
}

// RUnlock implements vsync.Runtime.
func (s *scheduler) RUnlock(m *vsync.RWMutex) {
	if s.aborted.Load() {
		return
	}
	t := s.currentThread()
	st := s.rwStateOf(m)
	if i := t.find(&st.lockNode); i >= 0 && st.writer == t {
		panic(fmt.Sprintf("shuttle: RUnlock at %s of a RWMutex write-held since %s", s.callerSite(), t.held[i].at))
	}
	if st.readers <= 0 {
		panic("shuttle: RUnlock without RLock")
	}
	t.release(&st.lockNode)
	st.readers--
	if st.readers == 0 {
		for _, w := range st.waiters {
			w.state = stateRunnable
		}
		st.waiters = nil
	}
}

// WLock implements vsync.Runtime.
func (s *scheduler) WLock(m *vsync.RWMutex) {
	if s.aborted.Load() {
		return
	}
	t, at := s.currentThread(), s.callerSite()
	s.yieldPoint(t)
	st := s.rwStateOf(m)
	s.checkReentry(t, &st.lockNode, at)
	for st.writer != nil || st.readers > 0 {
		t.state = stateBlockedMutex
		t.waitRW = st
		t.waitRead = false
		st.waiters = append(st.waiters, t)
		s.park(t)
		t.waitRW = nil
	}
	st.writer = t
	s.acquired(t, &st.lockNode, false, at)
}

// WUnlock implements vsync.Runtime.
func (s *scheduler) WUnlock(m *vsync.RWMutex) {
	if s.aborted.Load() {
		return
	}
	t := s.currentThread()
	st := s.rwStateOf(m)
	if st.writer != t {
		panic("shuttle: WUnlock of RWMutex not write-held by caller")
	}
	t.release(&st.lockNode)
	st.writer = nil
	for _, w := range st.waiters {
		w.state = stateRunnable
	}
	st.waiters = nil
}

// CondWait implements vsync.Runtime.
func (s *scheduler) CondWait(c *vsync.Cond) {
	if s.aborted.Load() {
		return
	}
	t, at := s.currentThread(), s.callerSite()
	cst := s.condStateOf(c)
	// Atomically release the mutex and enqueue as a waiter.
	mst := s.mutexState(c.L)
	if mst.holder != t {
		panic(fmt.Sprintf("shuttle: Cond.Wait at %s without holding its mutex, last released at %s", at, mst.released))
	}
	if t.release(&mst.lockNode); len(t.held) > 0 {
		s.violate("%s waits on a Cond at %s holding a lock taken at %s besides the Cond's own", t.name, at, t.held[0].at)
	}
	mst.holder = nil
	for _, w := range mst.waiters {
		w.state = stateRunnable
	}
	mst.waiters = nil

	t.state = stateBlockedCond
	t.waitCond = cst
	cst.waiters = append(cst.waiters, t)
	s.park(t)
	t.waitCond = nil

	// Reacquire the mutex.
	for mst.holder != nil {
		t.state = stateBlockedMutex
		t.waitMutex = mst
		mst.waiters = append(mst.waiters, t)
		s.park(t)
		t.waitMutex = nil
	}
	mst.holder = t
	s.acquired(t, &mst.lockNode, false, at)
}

// CondSignal implements vsync.Runtime.
func (s *scheduler) CondSignal(c *vsync.Cond) {
	if s.aborted.Load() {
		return
	}
	cst := s.condStateOf(c)
	if len(cst.waiters) > 0 {
		w := cst.waiters[0]
		cst.waiters = cst.waiters[1:]
		w.state = stateRunnable
	}
}

// CondBroadcast implements vsync.Runtime.
func (s *scheduler) CondBroadcast(c *vsync.Cond) {
	if s.aborted.Load() {
		return
	}
	cst := s.condStateOf(c)
	for _, w := range cst.waiters {
		w.state = stateRunnable
	}
	cst.waiters = nil
}

// joinHandle implements vsync.Handle.
type joinHandle struct {
	s *scheduler
	t *thread
}

// Join implements vsync.Handle.
func (h *joinHandle) Join() {
	s := h.s
	if s.aborted.Load() {
		return
	}
	t := s.currentThread()
	for h.t.state != stateDone {
		t.state = stateBlockedJoin
		t.waitJoin = h.t
		h.t.joiners = append(h.t.joiners, t)
		s.park(t)
		t.waitJoin = nil
	}
}

// Spawn implements vsync.Runtime.
func (s *scheduler) Spawn(name string, f func()) vsync.Handle {
	if s.aborted.Load() {
		// Spawns from unwinding defers are discarded with the iteration.
		return noopHandle{}
	}
	t := s.newThread(name)
	s.startThread(t, f)
	return &joinHandle{s: s, t: t}
}

type noopHandle struct{}

func (noopHandle) Join() {}

// Yield implements vsync.Runtime.
func (s *scheduler) Yield() {
	if s.aborted.Load() {
		return
	}
	t := s.currentThread()
	s.yieldPoint(t)
}

func (s *scheduler) newThread(name string) *thread {
	t := &thread{
		id:        s.nextID,
		name:      name,
		state:     stateRunnable,
		resume:    make(chan resumeMsg, 1),
		spawnedAt: s.callerSite(),
	}
	s.nextID++
	s.threads = append(s.threads, t)
	if pct, ok := s.strategy.(*PCT); ok {
		t.pctPriority = pct.priorityFor(t.id)
	}
	return t
}

// startThread launches the worker goroutine; it waits for its first resume.
func (s *scheduler) startThread(t *thread, f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if msg := <-t.resume; msg == msgAbort {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSentinel); ok {
					return
				}
				if s.aborted.Load() {
					return // discard panics raised during teardown
				}
				t.state = stateDone
				s.wakeJoiners(t)
				s.events <- event{kind: evPanic, panicErr: r}
				return
			}
			if s.aborted.Load() {
				return
			}
			t.state = stateDone
			s.wakeJoiners(t)
			s.events <- event{kind: evDone}
		}()
		f()
	}()
}

func (s *scheduler) wakeJoiners(t *thread) {
	for _, j := range t.joiners {
		j.state = stateRunnable
	}
	t.joiners = nil
}

// runnableThreads returns runnable threads in id order. Blocked threads are
// runnable again once their wake condition was satisfied (their state is
// flipped by the waker), so this is a plain state filter.
func (s *scheduler) runnableThreads() []*thread {
	out := s.runnable[:0]
	for _, t := range s.threads {
		if t.state == stateRunnable {
			out = append(out, t)
		}
	}
	s.runnable = out
	return out
}

func (s *scheduler) liveThreads() []*thread {
	var out []*thread
	for _, t := range s.threads {
		if t.state != stateDone {
			out = append(out, t)
		}
	}
	return out
}

// run executes one iteration: body as thread 0, scheduling until all threads
// finish or a failure occurs. Returns the failure, if any.
func (s *scheduler) run(body func()) *Failure {
	root := s.newThread("main")
	s.startThread(root, body)

	for {
		runnable := s.runnableThreads()
		if len(runnable) == 0 {
			live := s.liveThreads()
			if len(live) == 0 {
				if s.violation != "" {
					return s.stop(FailLockDiscipline, s.violation, nil)
				}
				return s.failure // normal completion (failure set on panic)
			}
			names := ""
			for _, t := range live {
				if names != "" {
					names += ", "
				}
				names += fmt.Sprintf("%s(%s)", t.name, blockReason(t))
			}
			return s.stop(FailDeadlock, fmt.Sprintf("deadlock: %d threads blocked: %s", len(live), names), nil)
		}
		if s.steps >= s.maxSteps {
			return s.stop(FailStepBound, fmt.Sprintf("step bound %d exceeded (livelock?)", s.maxSteps), nil)
		}
		choice := s.strategy.Pick(s, runnable)
		if choice < 0 || choice >= len(runnable) {
			choice = 0
		}
		s.trace = append(s.trace, choice)
		s.steps++
		t := runnable[choice]
		s.current = t
		t.resume <- msgRun
		ev := <-s.events
		s.current = nil
		switch {
		case ev.kind == evPanic:
			return s.stop(FailPanic, fmt.Sprintf("panic in %s: %v", t.name, ev.panicErr), ev.panicErr)
		case s.halt:
			return s.stop(FailLockDiscipline, s.violation, nil)
		case ev.kind == evDone && len(t.held) > 0:
			s.violate("%s (spawned at %s) finished holding a lock taken at %s", t.name, t.spawnedAt, t.held[0].at)
		}
	}
}

// stop ends the iteration with a failure, reporting any lock-discipline
// violation, and aborts every thread.
func (s *scheduler) stop(kind FailureKind, err string, panicValue any) *Failure {
	if s.violation != "" && kind != FailLockDiscipline {
		err += "; lock discipline: " + s.violation
	}
	f := &Failure{Kind: kind, Err: err, Trace: append([]int(nil), s.trace...), PanicValue: panicValue}
	s.abort()
	return f
}

func blockReason(t *thread) string {
	switch t.state {
	case stateBlockedMutex:
		return "mutex"
	case stateBlockedCond:
		return "condvar"
	case stateBlockedJoin:
		return "join"
	case stateRunnable:
		return "runnable"
	default:
		return "?"
	}
}

// abort terminates all parked threads and waits for every worker to exit.
func (s *scheduler) abort() {
	s.aborted.Store(true)
	for _, t := range s.threads {
		if t.state != stateDone {
			// The buffer guarantees the send never blocks: each thread has
			// at most one outstanding resume message, and a thread that is
			// between sending its event and blocking on resume will still
			// observe the buffered abort.
			t.resume <- msgAbort
		}
	}
	s.wg.Wait()
}
