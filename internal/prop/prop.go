// Package prop is a small property-based testing engine (the paper's
// stand-in for proptest [30], §4.1): generator combinators with probabilistic
// biasing, deterministic seed-driven case generation, and automatic
// minimization of failing inputs.
//
// The engine favors the behaviors §4 calls out: biases are always
// probabilistic (they raise the chance of interesting arguments without
// excluding others), generation is replayable from a seed, and minimization
// uses simple reduction heuristics — remove operations, shrink arguments
// toward zero, prefer earlier enum variants — iterated to a fixpoint.
package prop

import (
	"math/rand"
)

// Gen produces a random value. size loosely bounds the magnitude/length of
// generated values.
type Gen[T any] func(r *rand.Rand, size int) T

// Const always generates v.
func Const[T any](v T) Gen[T] {
	return func(*rand.Rand, int) T { return v }
}

// IntRange generates integers in [lo, hi] inclusive.
func IntRange(lo, hi int) Gen[int] {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(r *rand.Rand, _ int) int { return lo + r.Intn(hi-lo+1) }
}

// OneOf picks uniformly among alternatives.
func OneOf[T any](gens ...Gen[T]) Gen[T] {
	return func(r *rand.Rand, size int) T {
		return gens[r.Intn(len(gens))](r, size)
	}
}

// Weighted picks among alternatives with the given relative weights. Weights
// must be positive.
func Weighted[T any](weights []int, gens []Gen[T]) Gen[T] {
	if len(weights) != len(gens) || len(gens) == 0 {
		panic("prop: Weighted needs equal, non-empty weights and gens")
	}
	total := 0
	for _, w := range weights {
		if w <= 0 {
			panic("prop: non-positive weight")
		}
		total += w
	}
	return func(r *rand.Rand, size int) T {
		n := r.Intn(total)
		for i, w := range weights {
			if n < w {
				return gens[i](r, size)
			}
			n -= w
		}
		return gens[len(gens)-1](r, size)
	}
}

// Biased returns a generator that uses preferred with probability p and
// fallback otherwise — the §4.2 pattern: "biases are always probabilistic:
// they only increase the chance of selecting desirable cases, but other
// cases remain possible".
func Biased[T any](p float64, preferred, fallback Gen[T]) Gen[T] {
	return func(r *rand.Rand, size int) T {
		if r.Float64() < p {
			return preferred(r, size)
		}
		return fallback(r, size)
	}
}

// Bytes generates byte slices of length up to size.
func Bytes() Gen[[]byte] {
	return func(r *rand.Rand, size int) []byte {
		n := r.Intn(size + 1)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return b
	}
}

// SliceOf generates slices of elem with length up to size.
func SliceOf[T any](elem Gen[T]) Gen[[]T] {
	return func(r *rand.Rand, size int) []T {
		n := r.Intn(size + 1)
		out := make([]T, n)
		for i := range out {
			out[i] = elem(r, size)
		}
		return out
	}
}

// Map transforms generated values.
func Map[T, U any](g Gen[T], f func(T) U) Gen[U] {
	return func(r *rand.Rand, size int) U { return f(g(r, size)) }
}

// CaseSeed derives the deterministic seed for case i of a run seeded with
// root. SplitMix64 finalizer keeps neighbouring cases uncorrelated.
func CaseSeed(root int64, i int) int64 {
	z := uint64(root) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Reseed returns a generator in the state of rand.New(rand.NewSource(seed)):
// r re-seeded in place, or a new generator when r is nil. A loop that seeds a
// generator per iteration (the harness before every op, §4.3) keeps one and
// passes it back in: the values drawn are the same, and the 4.9 KB source a
// construction allocates is built once.
func Reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// Failure describes a failing case found by ForAll.
type Failure[T any] struct {
	// Case is the zero-based index of the failing case.
	Case int
	// Seed replays the failing case.
	Seed int64
	// Input is the generated input that failed.
	Input T
	// Minimized is the shrunk input (equal to Input if shrinking is
	// disabled or found nothing smaller).
	Minimized T
	// Err is the property violation.
	Err error
}

// Config tunes a ForAll run.
type Config struct {
	// Cases is the number of random cases (default 100).
	Cases int
	// Seed roots the run; 0 means 1 (fully deterministic by default).
	Seed int64
	// Size is the generator size parameter (default 32).
	Size int
}

func (c Config) withDefaults() Config {
	if c.Cases == 0 {
		c.Cases = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Size == 0 {
		c.Size = 32
	}
	return c
}

// ForAll checks prop on Cases random inputs and returns the first failure
// (shrunk with shrink, if non-nil), or nil if every case passed.
func ForAll[T any](cfg Config, gen Gen[T], property func(T) error, shrink func(T) []T) *Failure[T] {
	cfg = cfg.withDefaults()
	var r *rand.Rand
	for i := 0; i < cfg.Cases; i++ {
		seed := CaseSeed(cfg.Seed, i)
		r = Reseed(r, seed)
		input := gen(r, cfg.Size)
		err := property(input)
		if err == nil {
			continue
		}
		f := &Failure[T]{Case: i, Seed: seed, Input: input, Minimized: input, Err: err}
		if shrink != nil {
			f.Minimized, f.Err = MinimizeValue(input, err, property, shrink, 1000)
		}
		return f
	}
	return nil
}

// MinimizeValue greedily applies shrink candidates while the property keeps
// failing, up to budget property evaluations. It returns the smallest
// still-failing input found and its error.
func MinimizeValue[T any](input T, err error, property func(T) error, shrink func(T) []T, budget int) (T, error) {
	cur, curErr := input, err
	for budget > 0 {
		improved := false
		for _, cand := range shrink(cur) {
			if budget <= 0 {
				break
			}
			budget--
			if cerr := property(cand); cerr != nil {
				cur, curErr = cand, cerr
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, curErr
}

// MinimizeSeq shrinks a failing operation sequence with the §4.3 heuristics:
// first delta-debugging style chunk removal ("remove an operation from the
// sequence"), then per-element shrinking via shrinkOp ("shrink an integer
// argument towards zero" / earlier enum variants). fails must be
// deterministic; budget bounds the number of fails evaluations.
func MinimizeSeq[O any](seq []O, fails func([]O) bool, shrinkOp func(O) []O, budget int) []O {
	cur := append([]O(nil), seq...)
	eval := func(c []O) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return fails(c)
	}

	// Phase 1: remove chunks, halving granularity.
	for chunkLen := len(cur) / 2; chunkLen >= 1; chunkLen /= 2 {
		changed := true
		for changed {
			changed = false
			for start := 0; start+chunkLen <= len(cur); start++ {
				cand := make([]O, 0, len(cur)-chunkLen)
				cand = append(cand, cur[:start]...)
				cand = append(cand, cur[start+chunkLen:]...)
				if len(cand) == 0 {
					continue
				}
				if eval(cand) {
					cur = cand
					changed = true
				}
			}
			if budget <= 0 {
				return cur
			}
		}
	}

	// Phase 2: shrink individual operations to a fixpoint.
	if shrinkOp != nil {
		for improved := true; improved && budget > 0; {
			improved = false
			for i := range cur {
				for _, alt := range shrinkOp(cur[i]) {
					cand := append([]O(nil), cur...)
					cand[i] = alt
					if eval(cand) {
						cur = cand
						improved = true
						break
					}
				}
			}
		}
	}
	return cur
}
