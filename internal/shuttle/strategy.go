package shuttle

import (
	"math/rand"

	"shardstore/internal/prop"
)

// Strategy decides which runnable thread runs at each scheduling point.
type Strategy interface {
	// Pick returns the index into runnable of the thread to run next.
	Pick(s *scheduler, runnable []*thread) int
	// BeginIteration resets per-iteration state. It returns false when the
	// strategy has exhausted its search space (DFS) and exploration should
	// stop.
	BeginIteration(iteration int) bool
	// Name labels the strategy in reports.
	Name() string
}

// Random picks uniformly among runnable threads — the scalable default for
// large harnesses (§6: Shuttle "implements randomized algorithms").
type Random struct {
	Seed int64
	rng  *rand.Rand
}

// NewRandom returns a Random strategy.
func NewRandom(seed int64) *Random { return &Random{Seed: seed} }

// BeginIteration implements Strategy.
func (r *Random) BeginIteration(iteration int) bool {
	r.rng = prop.Reseed(r.rng, r.Seed+int64(iteration)*0x9E3779B9)
	return true
}

// Pick implements Strategy.
func (r *Random) Pick(_ *scheduler, runnable []*thread) int {
	if len(runnable) == 1 {
		return 0
	}
	return r.rng.Intn(len(runnable))
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// PCT implements probabilistic concurrency testing [5]: threads get random
// priorities, the scheduler always runs the highest-priority runnable
// thread, and at Depth-1 random step indices the current thread's priority
// is demoted below all others. PCT finds bugs of depth d with probability
// ≥ 1/(n·k^(d-1)).
type PCT struct {
	Seed  int64
	Depth int
	// MaxSteps estimates k (the schedule length) for change-point placement.
	MaxSteps int

	rng          *rand.Rand
	changePoints map[int]bool
	demoted      map[int]int // thread id -> demotion order (lower = later demotion = lower priority)
	demoteSeq    int
	step         int
}

// NewPCT returns a PCT strategy of the given depth.
func NewPCT(seed int64, depth, maxSteps int) *PCT {
	return &PCT{Seed: seed, Depth: depth, MaxSteps: maxSteps}
}

// BeginIteration implements Strategy.
func (p *PCT) BeginIteration(iteration int) bool {
	p.rng = prop.Reseed(p.rng, p.Seed+int64(iteration)*0x9E3779B9)
	p.changePoints = make(map[int]bool)
	for i := 0; i < p.Depth-1; i++ {
		p.changePoints[p.rng.Intn(maxI(p.MaxSteps, 1))] = true
	}
	p.demoted = make(map[int]int)
	p.demoteSeq = 0
	p.step = 0
	return true
}

// priorityFor assigns a random base priority to a newly spawned thread.
func (p *PCT) priorityFor(id int) int {
	if p.rng == nil {
		return id
	}
	return p.rng.Intn(1 << 20)
}

// Pick implements Strategy.
func (p *PCT) Pick(s *scheduler, runnable []*thread) int {
	p.step++
	best := 0
	for i := 1; i < len(runnable); i++ {
		if p.less(runnable[best], runnable[i]) {
			best = i
		}
	}
	if p.changePoints[p.step] {
		// Demote the chosen thread below every other thread.
		p.demoteSeq++
		p.demoted[runnable[best].id] = p.demoteSeq
		// Re-pick after demotion.
		best = 0
		for i := 1; i < len(runnable); i++ {
			if p.less(runnable[best], runnable[i]) {
				best = i
			}
		}
	}
	return best
}

// less reports whether a has lower scheduling priority than b.
func (p *PCT) less(a, b *thread) bool {
	da, db := p.demoted[a.id], p.demoted[b.id]
	if (da > 0) != (db > 0) {
		return da > 0 // demoted threads lose
	}
	if da > 0 && db > 0 {
		return da > db // more recently demoted loses
	}
	if a.pctPriority != b.pctPriority {
		return a.pctPriority < b.pctPriority
	}
	return a.id > b.id
}

// Name implements Strategy.
func (p *PCT) Name() string { return "pct" }

// DFS exhaustively enumerates scheduling choices (bounded by MaxIterations
// and the scheduler's step bound) via stateless re-execution: it records the
// choice prefix of the previous run and advances the last choice with
// remaining alternatives, like Loom's depth-first search.
type DFS struct {
	// prefix is the stack of (choice, optionCount) pairs from the last run.
	prefix []dfsChoice
	// pos is the current depth within this iteration.
	pos       int
	exhausted bool
}

type dfsChoice struct {
	choice  int
	options int
}

// NewDFS returns an exhaustive strategy.
func NewDFS() *DFS { return &DFS{} }

// BeginIteration implements Strategy: it backtracks to the deepest choice
// with an untried alternative.
func (d *DFS) BeginIteration(iteration int) bool {
	if iteration == 0 {
		d.pos = 0
		return true
	}
	// Advance the prefix: drop trailing fully-explored choices.
	for len(d.prefix) > 0 {
		last := &d.prefix[len(d.prefix)-1]
		if last.choice+1 < last.options {
			last.choice++
			d.pos = 0
			return true
		}
		d.prefix = d.prefix[:len(d.prefix)-1]
	}
	d.exhausted = true
	return false
}

// Pick implements Strategy.
func (d *DFS) Pick(_ *scheduler, runnable []*thread) int {
	if d.pos < len(d.prefix) {
		c := d.prefix[d.pos]
		d.pos++
		if c.choice < len(runnable) {
			return c.choice
		}
		return 0
	}
	d.prefix = append(d.prefix, dfsChoice{choice: 0, options: len(runnable)})
	d.pos++
	return 0
}

// Exhausted reports whether the whole (bounded) space was explored.
func (d *DFS) Exhausted() bool { return d.exhausted }

// Name implements Strategy.
func (d *DFS) Name() string { return "dfs" }

// Fixed replays a recorded trace deterministically — the replay mechanism
// for failures found by any strategy.
type Fixed struct {
	Trace []int
	pos   int
}

// NewFixed returns a trace-replay strategy.
func NewFixed(trace []int) *Fixed { return &Fixed{Trace: trace} }

// BeginIteration implements Strategy.
func (f *Fixed) BeginIteration(iteration int) bool {
	f.pos = 0
	return iteration == 0
}

// Pick implements Strategy.
func (f *Fixed) Pick(_ *scheduler, runnable []*thread) int {
	if f.pos < len(f.Trace) {
		c := f.Trace[f.pos]
		f.pos++
		if c < len(runnable) {
			return c
		}
	}
	return 0
}

// Name implements Strategy.
func (f *Fixed) Name() string { return "fixed" }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
