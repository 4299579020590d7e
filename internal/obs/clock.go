// Package obs is the node's unified observability layer: a metrics registry
// (atomic counters, gauges, and fixed-bucket latency histograms), a
// deterministic request-span tracer, and human-readable rendering for both.
//
// The design constraint comes straight from the validation methodology (§4 of
// the paper): the harnesses replay minimized counterexamples and diff durable
// disk images byte for byte, so observing the node must never perturb it.
// Every metric is a passive atomic; no obs call branches the instrumented
// code; and time comes from an injectable Clock — a logical tick counter
// under the deterministic harnesses (so runs are bit-identical and latency
// "durations" are replayable tick counts), the wall clock in the server.
//
// The same layer serves both halves of the project. Production-style runs
// (cmd/shardstore) expose the registry over the rpc `metrics` op and pprof;
// validation runs replay a minimized counterexample with spans on, one span
// per harness op, so a failure ships with the layers each op touched — the
// raw material that trace-based validation work (Pek et al.) builds on.
package obs

import (
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps for latency measurement. Implementations
// must be safe for concurrent use. The unit is implementation-defined:
// nanoseconds for the wall clock, abstract ticks for the logical clock.
type Clock interface {
	Now() uint64
}

// LogicalClock is a deterministic clock: every Now advances an atomic counter
// by one tick. Under a deterministic workload the sequence of ticks — and
// therefore every recorded "latency" — is a pure function of the executed
// operations, so validation runs stay replayable and their metric output is
// stable across runs and machines.
type LogicalClock struct {
	t atomic.Uint64
}

// NewLogicalClock returns a logical clock starting at tick zero.
func NewLogicalClock() *LogicalClock { return &LogicalClock{} }

// Now advances the clock one tick and returns it.
func (c *LogicalClock) Now() uint64 { return c.t.Add(1) }

// WallClock measures real elapsed nanoseconds since its creation (monotonic,
// so unaffected by wall-time jumps). This is the server's clock.
type WallClock struct {
	base time.Time
}

// NewWallClock returns a wall clock anchored at the current instant.
func NewWallClock() *WallClock {
	return &WallClock{base: time.Now()} //shardlint:allow determinism WallClock is the explicit nondeterministic clock; harnesses inject LogicalClock
}

// Now returns nanoseconds elapsed since the clock was created.
func (c *WallClock) Now() uint64 {
	return uint64(time.Since(c.base)) //shardlint:allow determinism WallClock is the explicit nondeterministic clock; harnesses inject LogicalClock
}
