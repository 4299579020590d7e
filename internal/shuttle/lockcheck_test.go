package shuttle

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"shardstore/internal/vsync"
)

// box is the shared state of the lock-discipline fixtures.
type box struct {
	mu, other vsync.Mutex
	rw        vsync.RWMutex
	cond      *vsync.Cond
	ready     bool
}

func newBox() *box {
	b := &box{}
	b.cond = vsync.NewCond(&b.mu)
	return b
}

func leakOnEarlyReturn(b *box, fail bool) bool {
	b.mu.Lock() // site:return-lock
	if fail {
		return false
	}
	b.mu.Unlock()
	return true
}

func unlockOnEveryReturn(b *box, fail bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !fail
}

func panicsWhileHolding(b *box) {
	b.mu.Lock() // site:panic-lock
	if !b.ready {
		panic("invariant")
	}
	b.mu.Unlock()
}

func unlocksOnPanic(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready {
		panic("invariant")
	}
}

func leakThroughLoop(b *box, n int) {
	for i := 0; i < n; i++ {
		b.mu.Lock() // site:loop-lock
	}
}

func lockThroughLoop(b *box, n int) {
	for i := 0; i < n; i++ {
		b.mu.Lock()
		b.mu.Unlock()
	}
}

func doubleLock(b *box) {
	b.mu.Lock() // site:double-first
	b.mu.Lock() // site:double-second
	b.mu.Unlock()
	b.mu.Unlock()
}

func wrongMode(b *box) {
	b.rw.Lock()    // site:mode-lock
	b.rw.RUnlock() // site:mode-runlock
}

func lockAB(b *box) {
	b.mu.Lock()    // site:ab-outer
	b.other.Lock() // site:ab-inner
	b.other.Unlock()
	b.mu.Unlock()
}

func lockBA(b *box) {
	b.other.Lock() // site:ba-outer
	b.mu.Lock()    // site:ba-inner
	b.mu.Unlock()
	b.other.Unlock()
}

// signal is the waiter fixtures' other thread: it sets ready under b.mu.
func signal(b *box) vsync.Handle {
	return vsync.Go("signaller", func() {
		b.mu.Lock()
		b.ready = true
		b.cond.Signal()
		b.mu.Unlock()
	})
}

// waitForReady waits on b.cond; b.mu is held from before the signaller
// starts, so it waits in every schedule.
func waitForReady(b *box) {
	b.mu.Lock()
	h := signal(b)
	for !b.ready {
		b.cond.Wait() // site:wait-other
	}
	b.mu.Unlock()
	h.Join()
}

func waitWithoutLock(b *box) {
	b.mu.Lock()
	b.mu.Unlock() // site:unheld-release
	b.cond.Wait() // site:unheld-wait
}

type disciplineCase struct {
	name  string
	kind  FailureKind
	sites []string
	bad   func(b *box)
	fixed func(b *box)
}

// TestLockDiscipline runs each vsync-visible shape of a lock-discipline
// defect and checks the failure kind and the sites the report names; each
// shape's corrected twin must explore clean and exhaustively under DFS.
// The shapes are grouped by property: unlock-path (every acquire is
// released once, in its mode, on every path) and lock-order (acquisition
// order and what a Cond.Wait may hold).
func TestLockDiscipline(t *testing.T) {
	sites := fixtureSites(t)
	unlockPath := []disciplineCase{
		{"return while holding", FailLockDiscipline, []string{"return-spawn", "return-lock"},
			func(b *box) { vsync.Go("leaker", func() { leakOnEarlyReturn(b, true) }).Join() }, // site:return-spawn
			func(b *box) { vsync.Go("leaker", func() { unlockOnEveryReturn(b, true) }).Join() }},
		{"panic while holding", FailLockDiscipline, []string{"panic-spawn", "panic-lock"},
			func(b *box) { vsync.Go("panicker", func() { defer recoverAll(); panicsWhileHolding(b) }).Join() }, // site:panic-spawn
			func(b *box) { vsync.Go("panicker", func() { defer recoverAll(); unlocksOnPanic(b) }).Join() }},
		{"loop leaks its lock", FailLockDiscipline, []string{"loop-lock"},
			func(b *box) { leakThroughLoop(b, 2) },
			func(b *box) { lockThroughLoop(b, 2) }},
		{"double acquire", FailLockDiscipline, []string{"double-second", "double-first"},
			doubleLock,
			func(b *box) { lockThroughLoop(b, 2) }},
		{"RUnlock of a write-held lock", FailPanic, []string{"mode-runlock", "mode-lock"},
			wrongMode,
			func(b *box) { b.rw.Lock(); b.rw.Unlock() }},
	}
	lockOrder := []disciplineCase{
		{"A->B then B->A order cycle, never deadlocking", FailLockDiscipline, []string{"ba-inner", "ba-outer", "ab-inner", "ab-outer"},
			func(b *box) {
				vsync.Go("ab", func() { lockAB(b) }).Join()
				vsync.Go("ba", func() { lockBA(b) }).Join()
			},
			func(b *box) {
				vsync.Go("ab", func() { lockAB(b) }).Join()
				vsync.Go("ab2", func() { lockAB(b) }).Join()
			}},
		{"wait holding another lock", FailLockDiscipline, []string{"wait-other", "other-lock"},
			func(b *box) {
				b.other.Lock() // site:other-lock
				waitForReady(b)
				b.other.Unlock()
			},
			func(b *box) {
				waitForReady(b)
				b.other.Lock()
				b.other.Unlock()
			}},
		{"Wait without its lock", FailPanic, []string{"unheld-wait", "unheld-release"},
			waitWithoutLock,
			waitForReady},
	}
	run := func(t *testing.T, cases []disciplineCase) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				rep := Explore(Options{Strategy: NewDFS(), Iterations: 10000}, func() { tc.bad(newBox()) })
				f := rep.First()
				if f == nil || f.Kind != tc.kind {
					t.Fatalf("want a %v failure, got %v", tc.kind, f)
				}
				for _, name := range tc.sites {
					if want, ok := sites[name]; !ok || !strings.Contains(f.Err, want) {
						t.Errorf("report does not name %s (%s): %s", name, sites[name], f.Err)
					}
				}
				t.Logf("%v: %s", f.Kind, f.Err)
				rep = Explore(Options{Strategy: NewDFS(), Iterations: 10000}, func() { tc.fixed(newBox()) })
				if rep.Failed() || !rep.Exhausted {
					t.Fatalf("corrected twin: failed=%v exhausted=%v after %d iterations: %v", rep.Failed(), rep.Exhausted, rep.Iterations, rep.First())
				}
			})
		}
	}
	t.Run("unlock-path", func(t *testing.T) { run(t, unlockPath) })
	t.Run("lock-order", func(t *testing.T) { run(t, lockOrder) })
}

func recoverAll() { _ = recover() }

// fixtureSites maps each "site:<name>" marker in this file to the
// "shuttle/lockcheck_test.go:<line>" a report renders for that line.
func fixtureSites(t *testing.T) map[string]string {
	src, err := os.ReadFile("lockcheck_test.go")
	if err != nil {
		t.Fatal(err)
	}
	marker := regexp.MustCompile(`// site:([a-z-]+)$`)
	sites := make(map[string]string)
	for i, line := range strings.Split(string(src), "\n") {
		if m := marker.FindStringSubmatch(line); m != nil {
			sites[m[1]] = fmt.Sprintf("shuttle/lockcheck_test.go:%d", i+1)
		}
	}
	return sites
}

// TestLockDisciplineCountsCoverage: the report carries how many lock
// instances and order edges the checker saw in one iteration.
func TestLockDisciplineCountsCoverage(t *testing.T) {
	rep := Explore(Options{Strategy: NewDFS(), Iterations: 10000}, func() {
		b := newBox()
		lockAB(b)
		lockAB(b)
	})
	if rep.Failed() || rep.LockInstances != 2 || rep.LockEdges != 1 {
		t.Fatalf("want 2 lock instances and 1 edge, got %d and %d (%v)", rep.LockInstances, rep.LockEdges, rep.First())
	}
}
