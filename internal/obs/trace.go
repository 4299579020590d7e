package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Event is one structured trace record: something a layer of the node did.
// Events are recorded at the disk/chunk/LSM/store/scrub/rpc boundaries and by
// the conformance harness at op boundaries, so a dumped ring reads as the
// node's execution trail — what IO a failing case actually issued.
type Event struct {
	// Seq is the global record ordinal (monotonic, never reused).
	Seq uint64 `json:"seq"`
	// Tick is the obs clock reading when the event was recorded.
	Tick uint64 `json:"tick"`
	// Layer names the recording layer: disk, cache, chunk, lsm, store,
	// scrub, rpc, harness.
	Layer string `json:"layer"`
	// Op is the operation within the layer (put, get, crash, reclaim, ...).
	Op string `json:"op"`
	// Target identifies what was operated on: a shard key, a chunk locator,
	// an extent/page address.
	Target string `json:"target,omitempty"`
	// Outcome is "ok", "hit", "miss", or an error summary.
	Outcome string `json:"outcome,omitempty"`
	// Dur is the operation's duration in clock units, when measured.
	Dur uint64 `json:"dur,omitempty"`
}

// String renders the event as one stable, human-readable line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t=%d [%s] %s", e.Seq, e.Tick, e.Layer, e.Op)
	if e.Target != "" {
		fmt.Fprintf(&b, " %s", e.Target)
	}
	if e.Outcome != "" {
		fmt.Fprintf(&b, " -> %s", e.Outcome)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " (dur=%d)", e.Dur)
	}
	return b.String()
}

// Ring is a fixed-capacity trace buffer: recording is O(1), old events are
// overwritten, and Dump reports exactly how many earlier events were lost so
// a truncated trail is never mistaken for a complete one. A nil *Ring
// discards records. Safe for concurrent use.
type Ring struct {
	// Same waiver rationale as Registry.mu: a behavior-transparent leaf
	// lock (never held across other sync ops, guarded state never read by
	// the node), kept raw so ring records don't inflate shuttle's schedule
	// space on every instrumented-layer operation.
	mu    sync.Mutex //shardlint:allow syncusage behavior-transparent leaf lock; instrumenting adds only schedule noise
	buf   []Event
	total uint64 // events ever recorded
}

// DefaultRingEvents is the trace depth harnesses attach to failing cases.
const DefaultRingEvents = 128

// NewRing creates a ring holding the last capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record appends ev, stamping its Seq. The caller fills every other field
// (including Tick, so the clock is read only when a ring is attached).
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = r.total
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[ev.Seq%uint64(cap(r.buf))] = ev
}

// Dump returns the retained events oldest-first plus the count of earlier
// events that were overwritten (0 if the ring never wrapped).
func (r *Ring) Dump() (events []Event, truncated uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	events = make([]Event, 0, n)
	if r.total > uint64(n) {
		truncated = r.total - uint64(n)
	}
	start := r.total % uint64(cap(r.buf))
	if r.total <= uint64(cap(r.buf)) {
		start = 0
	}
	for i := 0; i < n; i++ {
		events = append(events, r.buf[(start+uint64(i))%uint64(n)])
	}
	return events, truncated
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever recorded.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Obs bundles a metrics registry with an optional trace ring, span tracer
// and coverage-probe table — the one instrumentation handle every layer of
// the node carries. A nil *Obs is fully inert; an Obs without a ring meters
// but does not trace, and one without probes drops probe hits. Components
// that receive no Obs create a private one so their Stats() snapshots keep
// working standalone.
type Obs struct {
	reg    *Registry
	ring   *Ring
	tracer *Tracer
}

// New creates an Obs metered against clock (nil clock = deterministic
// logical clock) with tracing disabled.
func New(clock Clock) *Obs {
	return &Obs{reg: NewRegistry(clock)}
}

// WithTrace attaches a trace ring retaining the last capacity events and
// returns o (for chaining). Passing capacity <= 0 selects DefaultRingEvents.
func (o *Obs) WithTrace(capacity int) *Obs {
	if capacity <= 0 {
		capacity = DefaultRingEvents
	}
	o.ring = NewRing(capacity)
	return o
}

// WithSpans attaches a request-span tracer retaining the last capacity
// completed traces, with a slow-op log gated at slowThreshold clock units
// (0 disables the slow log), and returns o for chaining. capacity <= 0
// selects DefaultTraceCap. Attach spans before handing the Obs to components:
// the RPC server resolves its tracer handle at construction.
func (o *Obs) WithSpans(capacity int, slowThreshold uint64) *Obs {
	o.tracer = newTracer(o.reg, capacity, slowThreshold)
	return o
}

// WithProbes turns on the coverage-probe table (§4.2) and returns o for
// chaining. Harnesses turn it on; a production node leaves it off, so Hit
// costs a nil check and the metrics snapshot carries no probes. Turn probes
// on before handing the Obs to components.
func (o *Obs) WithProbes() *Obs {
	o.reg.probes = make(Probes)
	return o
}

// Hit counts one hit of the named coverage probe. It is a no-op for a nil
// Obs or one without probes.
func (o *Obs) Hit(name string) {
	if o == nil || o.reg.probes == nil {
		return
	}
	o.reg.hit(name)
}

// Tracer returns the attached request-span tracer, or nil (also for a nil
// Obs) — and a nil Tracer hands out nil spans, so callers never branch.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the registry (nil for a nil Obs).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// TraceRing returns the attached ring, or nil.
func (o *Obs) TraceRing() *Ring {
	if o == nil {
		return nil
	}
	return o.ring
}

// Tracing reports whether a ring is attached. Chatty instrumentation sites
// guard their event-formatting (which allocates) behind this, keeping the
// no-trace hot path allocation-free.
func (o *Obs) Tracing() bool { return o != nil && o.ring != nil }

// Now reads the obs clock (tick 0 for a nil Obs).
func (o *Obs) Now() uint64 {
	if o == nil {
		return 0
	}
	return o.reg.Now()
}

// Counter resolves a counter handle (nil-safe).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name)
}

// Gauge resolves a gauge handle (nil-safe).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name)
}

// Histogram resolves a histogram handle (nil-safe).
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name)
}

// Snapshot captures the registry (zero Snapshot for a nil Obs).
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.reg.Snapshot()
}

// Record stamps and records a trace event. It is a no-op unless a ring is
// attached, and the clock is read only when recording, so attaching a ring
// changes tick values but never node behavior.
func (o *Obs) Record(layer, op, target, outcome string, dur uint64) {
	if !o.Tracing() {
		return
	}
	o.ring.Record(Event{
		Tick:    o.reg.Now(),
		Layer:   layer,
		Op:      op,
		Target:  target,
		Outcome: outcome,
		Dur:     dur,
	})
}

// Outcome compresses an error into a trace outcome string.
func Outcome(err error) string {
	if err == nil {
		return "ok"
	}
	s := err.Error()
	if len(s) > 64 {
		s = s[:61] + "..."
	}
	return "err:" + s
}
