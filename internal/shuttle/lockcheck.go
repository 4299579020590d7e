package shuttle

import (
	"fmt"
	"path"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// The scheduler sees every vsync lock operation, so it checks lock
// discipline: each thread's held locks, and each iteration's graph of
// acquired-while-holding edges over lock instances. Violations: an order
// cycle (deadlocking in this schedule or not), a thread finishing while
// holding a lock, re-acquiring a held lock (this ends the iteration at once:
// the thread would wait on itself), and Cond.Wait holding a lock besides
// its own. TryLock adds a hold but no edge. No scheduling point is added.
// Stack walks would double a schedule's cost, so sites are captured only
// under the Fixed strategy; Explore replays each failure once to name them.

// site is the stack of a lock operation, symbolized only on report.
type site [6]uintptr

func (s *scheduler) callerSite() (at site) {
	if s.sites {
		runtime.Callers(3, at[:])
	}
	return at
}

// String renders the first frame outside vsync and shuttle as pkg/file:line.
func (s site) String() string {
	for frames := runtime.CallersFrames(s[:]); ; {
		f, more := frames.Next()
		dir := path.Dir(f.File)
		own := strings.HasSuffix(dir, "internal/vsync") || strings.HasSuffix(dir, "internal/shuttle")
		if f.File != "" && (!own || strings.HasSuffix(f.File, "_test.go")) {
			return path.Join(path.Base(dir), path.Base(f.File)) + ":" + strconv.Itoa(f.Line)
		}
		if !more {
			return "?"
		}
	}
}

// lockNode is a lock instance in the iteration's order graph.
type lockNode struct {
	out      []orderEdge // locks taken while holding this one
	released site        // where it was last unlocked
}

// orderEdge: thread took lock to at toAt, holding the source taken at fromAt.
type orderEdge struct {
	to           *lockNode
	fromAt, toAt site
	thread       string
}

type hold struct {
	lock *lockNode
	at   site
}

func (t *thread) find(lock *lockNode) int {
	return slices.IndexFunc(t.held, func(h hold) bool { return h.lock == lock })
}

func (t *thread) release(lock *lockNode) {
	t.held = slices.DeleteFunc(t.held, func(h hold) bool { return h.lock == lock })
}

// violate records the iteration's first violation.
func (s *scheduler) violate(format string, args ...any) {
	if s.violation == "" {
		s.violation = fmt.Sprintf(format, args...)
	}
}

// checkReentry ends the iteration if t already holds lock: the scheduler
// sees halt at the next event and aborts every thread, this one included.
func (s *scheduler) checkReentry(t *thread, lock *lockNode, at site) {
	if i := t.find(lock); i >= 0 {
		s.violation = fmt.Sprintf("%s re-acquires at %s a lock it took at %s", t.name, at, t.held[i].at)
		s.halt = true
		s.park(t)
	}
}

// acquired records t's new hold on lock and, unless it was a TryLock, an
// order edge from every lock t already holds. Edges stop after the first
// violation, so the graph stays acyclic and the path search needs no
// visited set.
func (s *scheduler) acquired(t *thread, lock *lockNode, try bool, at site) {
	held := t.held
	t.held = append(t.held, hold{lock, at})
	if try || s.violation != "" {
		return
	}
next:
	for _, h := range held {
		for _, e := range h.lock.out {
			if e.to == lock {
				continue next
			}
		}
		h.lock.out = append(h.lock.out, orderEdge{lock, h.at, at, t.name})
		s.edges++
		for _, back := range lock.out {
			if reaches(back.to, h.lock) {
				s.violate("lock-order cycle: %s took a lock at %s while holding one taken at %s; %s took them in the opposite order, at %s while holding one taken at %s",
					t.name, at, h.at, back.thread, back.toAt, back.fromAt)
				return
			}
		}
	}
}

// reaches reports whether the (acyclic) order graph has a path from a to b.
func reaches(a, b *lockNode) bool {
	if a == b {
		return true
	}
	for _, e := range a.out {
		if reaches(e.to, b) {
			return true
		}
	}
	return false
}
