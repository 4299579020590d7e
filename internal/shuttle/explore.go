package shuttle

import (
	"fmt"

	"shardstore/internal/vsync"
)

// FailureKind classifies a model-checking failure.
type FailureKind int

const (
	// FailPanic is an assertion failure (panic) in the body.
	FailPanic FailureKind = iota
	// FailDeadlock means every live thread was blocked.
	FailDeadlock
	// FailStepBound means the iteration exceeded the step budget.
	FailStepBound
	// FailLockDiscipline is a lock-discipline violation (lockcheck.go).
	FailLockDiscipline
)

func (k FailureKind) String() string {
	switch k {
	case FailPanic:
		return "panic"
	case FailDeadlock:
		return "deadlock"
	case FailStepBound:
		return "step-bound"
	case FailLockDiscipline:
		return "lock-discipline"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// Failure describes one failing interleaving.
type Failure struct {
	Kind FailureKind
	Err  string
	// Iteration is the iteration index that failed.
	Iteration int
	// Trace is the scheduling-choice sequence; replay it with NewFixed.
	Trace      []int
	PanicValue any
}

func (f *Failure) String() string {
	return fmt.Sprintf("[%v @ iteration %d, %d scheduling points] %s", f.Kind, f.Iteration, len(f.Trace), f.Err)
}

// Options configures an exploration.
type Options struct {
	// Strategy picks interleavings; defaults to NewRandom(1).
	Strategy Strategy
	// Iterations bounds the number of explored schedules (default 1000).
	// DFS may stop earlier when the space is exhausted.
	Iterations int
	// MaxSteps bounds scheduling decisions per iteration (default 200000).
	MaxSteps int
	// StopAtFirstFailure ends the exploration at the first failure (default
	// behavior; set ContinueAfterFailure to gather more).
	ContinueAfterFailure bool
}

// Report summarizes an exploration.
type Report struct {
	Strategy   string
	Iterations int
	// TotalSteps is the total number of scheduling decisions made.
	TotalSteps int64
	// Exhausted is true when DFS covered the entire bounded space.
	Exhausted bool
	Failures  []*Failure
	// LockInstances and LockEdges are the most lock instances and order
	// edges the lock-discipline checker recorded in one iteration.
	LockInstances, LockEdges int
}

// Failed reports whether any failure was found.
func (r Report) Failed() bool { return len(r.Failures) > 0 }

// First returns the first failure or nil.
func (r Report) First() *Failure {
	if len(r.Failures) == 0 {
		return nil
	}
	return r.Failures[0]
}

var runCounter uint64

// Explore model-checks body: it runs body repeatedly, each time under a
// different interleaving of its vsync-synchronized threads. body must be
// deterministic modulo scheduling (fresh state every call, seeded
// randomness). Assertions are plain panics inside the body's threads.
//
// Explore installs the scheduler as the process-global vsync runtime for its
// duration, so model-checking explorations must not run concurrently with
// each other or with other vsync users.
func Explore(opts Options, body func()) Report {
	if opts.Strategy == nil {
		opts.Strategy = NewRandom(1)
	}
	if opts.Iterations == 0 {
		opts.Iterations = 1000
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 200000
	}
	report := Report{Strategy: opts.Strategy.Name()}

	for i := 0; i < opts.Iterations; i++ {
		if !opts.Strategy.BeginIteration(i) {
			if d, ok := opts.Strategy.(*DFS); ok {
				report.Exhausted = d.Exhausted()
			}
			break
		}
		runCounter++
		s := &scheduler{
			runID:    runCounter,
			strategy: opts.Strategy,
			maxSteps: opts.MaxSteps,
			events:   make(chan event),
		}
		_, s.sites = opts.Strategy.(*Fixed)
		prev := vsync.SetRuntime(s)
		failure := s.run(body)
		vsync.SetRuntime(prev)
		report.Iterations++
		report.TotalSteps += int64(s.steps)
		report.LockInstances = max(report.LockInstances, s.locks)
		report.LockEdges = max(report.LockEdges, s.edges)
		if failure != nil {
			if !s.sites { // replay it once to name its lock sites
				if r := Replay(body, failure.Trace, opts.MaxSteps); r != nil && r.Kind == failure.Kind {
					failure.Err = r.Err
				}
			}
			failure.Iteration = i
			report.Failures = append(report.Failures, failure)
			if !opts.ContinueAfterFailure {
				break
			}
		}
	}
	return report
}

// Replay re-executes body under the exact scheduling trace of a failure and
// returns the failure it reproduces (nil if the trace no longer fails —
// which indicates nondeterminism in the body).
func Replay(body func(), trace []int, maxSteps int) *Failure {
	rep := Explore(Options{Strategy: NewFixed(trace), Iterations: 1, MaxSteps: maxSteps}, body)
	return rep.First()
}
