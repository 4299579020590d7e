package obs

import (
	"fmt"
	"strings"

	"shardstore/internal/vsync"
)

// Request-scoped tracing: a Span follows one operation end-to-end through the
// node — RPC frame arrival, dispatch-queue wait, the store call, the group
// commit barrier, the coalesced disk sync, the reply write — and concurrent
// background activity (compaction, scrub, reclamation) is stamped onto every
// overlapping span, so a single slow request carries its own attribution.
//
// The same rules as the rest of the package apply: a nil *Tracer, *Span, or
// *BgSpan discards everything, handle resolution happens at construction, the
// clock is only read when a tracer is attached, and under LogicalClock a
// deterministic workload yields bit-identical traces. Nothing a span records
// feeds back into node behavior, so tracing on/off must not change a verdict
// or a durable byte (enforced by TestTraceDeterminismGate).

// Stage names shared between the layers that record them and the per-stage
// histograms the tracer resolves at construction. The stages of one request
// never overlap each other, so their durations sum to at most the parent
// span's duration.
const (
	// StageQueueWait is the time a decoded frame waited for a dispatch worker.
	StageQueueWait = "rpc.queue_wait"
	// StageBarrierWait is a group-commit follower's wait for the leader's sync.
	StageBarrierWait = "sched.barrier_wait"
	// StageDiskSync is the group-commit leader's coalesced write+sync round.
	StageDiskSync = "disk.sync_wait"
	// StageReply is the time from response ready to response written.
	StageReply = "rpc.reply_wait"
	// StageInterference is not a stage but the histogram fed with each traced
	// request's total compaction-overlap ticks.
	StageInterference = "compact.interference"
)

// Stage is one attributed interval inside a request: where the ticks went.
type Stage struct {
	// Name is one of the Stage* constants or "store.<op>".
	Name string `json:"name"`
	// Start and End are obs clock readings bracketing the interval.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Detail carries stage-specific attribution: the barrier role, the
	// leader's group size.
	Detail string `json:"detail,omitempty"`
}

// Dur returns the stage's duration in clock units.
func (s Stage) Dur() uint64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// SpanNote is an annotation stamped on a span: either a manual Annotate call
// or a background activity window (compaction step, scrub round, reclamation)
// that overlapped the request.
type SpanNote struct {
	// Tick is when the annotated activity began (clock reading).
	Tick uint64 `json:"tick"`
	// Layer names the annotating layer (compact, scrub, chunk, disk).
	Layer string `json:"layer"`
	// Note describes the activity.
	Note string `json:"note"`
	// Overlap is how many clock units of the activity overlapped this span
	// (0 for manual annotations).
	Overlap uint64 `json:"overlap,omitempty"`
}

// ReqTrace is one completed request trace: the immutable record a finished
// span leaves behind, returned by the `trace` RPC op.
type ReqTrace struct {
	// TraceID identifies the request; over RPC v2 it is the frame's request
	// id, so a client can correlate its call with the server-side trace.
	TraceID uint64 `json:"trace_id"`
	// Op is the request operation ("put", "get", ...).
	Op string `json:"op"`
	// Key is the primary key operated on, when the op has one.
	Key string `json:"key,omitempty"`
	// Start and End are obs clock readings bracketing the whole request.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Stages are the attributed intervals, in the order they were recorded.
	Stages []Stage `json:"stages,omitempty"`
	// Notes are overlapping background activity and manual annotations.
	Notes []SpanNote `json:"notes,omitempty"`
}

// Duration returns the whole request's duration in clock units.
func (t ReqTrace) Duration() uint64 {
	if t.End < t.Start {
		return 0
	}
	return t.End - t.Start
}

// Span is one in-flight traced request. All methods are nil-safe and cheap:
// stage and note recording takes the tracer's single mutex (requests are
// metered at request rate, not IO rate), and the untraced hot path never
// reaches any of this code because a nil span discards everything.
type Span struct {
	tr *Tracer
	t  ReqTrace
	// finished latches Finish so a double finish (or a late stage/annotation
	// from a racing goroutine) cannot corrupt the completed record.
	finished bool
	// interference accumulates compaction-overlap ticks for the
	// compact.interference histogram.
	interference uint64
}

// bgWin is one open background-activity window.
type bgWin struct {
	layer string
	note  string
	start uint64
}

// BgSpan is the handle for a background-activity window (compaction step,
// scrub round, reclamation, disk sync). Ending it stamps an overlap note on
// every request span it overlapped. A nil *BgSpan discards End.
type BgSpan struct {
	tr *Tracer
	w  *bgWin
}

// Default capacities for the completed-trace and slow-op rings.
const (
	DefaultTraceCap = 64
	DefaultSlowCap  = 32
)

// Tracer owns the request-span machinery: the active-span set, open
// background windows, and the completed + slow rings. A nil *Tracer hands out
// nil spans, so call sites need no enablement branches.
type Tracer struct {
	clock Clock

	mu     vsync.Mutex
	nextID uint64
	// active and bg are slices, not maps: they are iterated on every finish
	// and window end, and insertion order keeps that iteration deterministic.
	active []*Span
	bg     []*bgWin

	completed traceRing
	slow      traceRing
	// slowThresh gates the slow ring: completed spans at or above this many
	// clock units are retained (0 disables the slow log).
	slowThresh uint64

	// Per-stage histograms, resolved once at construction.
	stageHist    map[string]*Histogram
	interference *Histogram
	spans        *Counter
}

// traceRing is a fixed-capacity wraparound buffer of completed traces,
// guarded by the tracer's mutex.
type traceRing struct {
	buf   []ReqTrace
	total uint64
}

func (r *traceRing) push(t ReqTrace) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = t
	}
	r.total++
}

func (r *traceRing) dump() (traces []ReqTrace, truncated uint64) {
	n := len(r.buf)
	traces = make([]ReqTrace, 0, n)
	if r.total > uint64(n) {
		truncated = r.total - uint64(n)
	}
	start := uint64(0)
	if n > 0 && r.total > uint64(cap(r.buf)) {
		start = r.total % uint64(cap(r.buf))
	}
	for i := 0; i < n; i++ {
		traces = append(traces, r.buf[(start+uint64(i))%uint64(n)])
	}
	return traces, truncated
}

func newTracer(reg *Registry, capacity int, slowThreshold uint64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	slowCap := DefaultSlowCap
	if slowCap > capacity {
		slowCap = capacity
	}
	return &Tracer{
		clock:      reg.clock,
		completed:  traceRing{buf: make([]ReqTrace, 0, capacity)},
		slow:       traceRing{buf: make([]ReqTrace, 0, slowCap)},
		slowThresh: slowThreshold,
		stageHist: map[string]*Histogram{
			StageQueueWait: reg.Histogram(StageQueueWait),
			StageDiskSync:  reg.Histogram(StageDiskSync),
			StageReply:     reg.Histogram(StageReply),
		},
		interference: reg.Histogram(StageInterference),
		spans:        reg.Counter("trace.spans"),
	}
}

// Start opens a span for one request. traceID 0 assigns a local id; RPC
// passes the frame's request id so client and server agree on the trace's
// identity. A nil tracer returns a nil span.
func (tr *Tracer) Start(traceID uint64, op, key string) *Span {
	if tr == nil {
		return nil
	}
	start := tr.clock.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if traceID == 0 {
		tr.nextID++
		traceID = tr.nextID
	}
	sp := &Span{tr: tr, t: ReqTrace{TraceID: traceID, Op: op, Key: key, Start: start}}
	tr.active = append(tr.active, sp)
	return sp
}

// Background opens an activity window for a maintenance task. When the window
// ends, every request span it overlapped gets a note with the overlap
// duration, and compact-layer overlap additionally feeds each span's
// compact.interference attribution. A nil tracer returns a nil handle.
func (tr *Tracer) Background(layer, note string) *BgSpan {
	if tr == nil {
		return nil
	}
	w := &bgWin{layer: layer, note: note, start: tr.clock.Now()}
	tr.mu.Lock()
	tr.bg = append(tr.bg, w)
	tr.mu.Unlock()
	return &BgSpan{tr: tr, w: w}
}

// End closes the window and stamps overlap notes on every active span.
// Spans that finished while the window was open were stamped at their own
// Finish. Ending twice is a no-op.
func (b *BgSpan) End() {
	if b == nil {
		return
	}
	end := b.tr.clock.Now()
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	found := false
	for i, w := range b.tr.bg {
		if w == b.w {
			b.tr.bg = append(b.tr.bg[:i], b.tr.bg[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	for _, sp := range b.tr.active {
		sp.noteLocked(b.w, end)
	}
}

// Completed returns the retained completed traces oldest-first plus the count
// of earlier traces that were overwritten.
func (tr *Tracer) Completed() (traces []ReqTrace, truncated uint64) {
	if tr == nil {
		return nil, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.completed.dump()
}

// Slow returns the retained slow-op traces (duration >= the threshold)
// oldest-first plus the overwritten count.
func (tr *Tracer) Slow() (traces []ReqTrace, truncated uint64) {
	if tr == nil {
		return nil, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.slow.dump()
}

// SlowThreshold returns the slow-log gate in clock units (0 = disabled).
func (tr *Tracer) SlowThreshold() uint64 {
	if tr == nil {
		return 0
	}
	return tr.slowThresh
}

// ActiveCount returns the number of spans started but not finished —
// orphaned spans show up here rather than corrupting the completed ring.
func (tr *Tracer) ActiveCount() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

// Now reads the tracer's clock (0 for a nil tracer). Call sites use it to
// take stage start ticks without touching the clock when tracing is off.
func (sp *Span) Now() uint64 {
	if sp == nil {
		return 0
	}
	return sp.tr.clock.Now()
}

// StartTick returns the span's opening clock reading (0 for nil).
func (sp *Span) StartTick() uint64 {
	if sp == nil {
		return 0
	}
	return sp.t.Start
}

// TraceID returns the span's trace id (0 for nil).
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.t.TraceID
}

// SetKey sets the span's primary key once the payload is decoded.
func (sp *Span) SetKey(key string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if !sp.finished {
		sp.t.Key = key
	}
}

// Stage records one attributed interval [start, now]. start comes from an
// earlier sp.Now() read, so untraced requests never read the clock. Stages
// recorded after Finish are dropped.
func (sp *Span) Stage(name string, start uint64, detail string) {
	if sp == nil {
		return
	}
	end := sp.tr.clock.Now()
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.finished {
		return
	}
	sp.t.Stages = append(sp.t.Stages, Stage{Name: name, Start: start, End: end, Detail: detail})
}

// Annotate stamps a manual note on the span (dropped after Finish).
func (sp *Span) Annotate(layer, note string) {
	if sp == nil {
		return
	}
	tick := sp.tr.clock.Now()
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.finished {
		return
	}
	sp.t.Notes = append(sp.t.Notes, SpanNote{Tick: tick, Layer: layer, Note: note})
}

// noteLocked stamps the overlap between window w (ending or observed at end)
// and this span. Caller holds the tracer's mutex.
func (sp *Span) noteLocked(w *bgWin, end uint64) {
	start := w.start
	if sp.t.Start > start {
		start = sp.t.Start
	}
	var overlap uint64
	if end > start {
		overlap = end - start
	}
	sp.t.Notes = append(sp.t.Notes, SpanNote{Tick: w.start, Layer: w.layer, Note: w.note, Overlap: overlap})
	if w.layer == "compact" {
		sp.interference += overlap
	}
}

// Finish closes the span: still-open background windows are stamped with
// their overlap so far, per-stage histograms are fed, and the completed trace
// lands in the ring (and the slow ring when at or past the threshold).
// Finishing twice is a no-op; the first completion wins.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	tr := sp.tr
	end := tr.clock.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if sp.finished {
		return
	}
	sp.finished = true
	sp.t.End = end
	for _, w := range tr.bg {
		sp.noteLocked(w, end)
	}
	for i, s := range tr.active {
		if s == sp {
			tr.active = append(tr.active[:i], tr.active[i+1:]...)
			break
		}
	}
	for _, st := range sp.t.Stages {
		if h := tr.stageHist[st.Name]; h != nil {
			h.Observe(st.Dur())
		}
	}
	if sp.interference > 0 {
		tr.interference.Observe(sp.interference)
	}
	tr.spans.Inc()
	tr.completed.push(sp.t)
	if tr.slowThresh > 0 && sp.t.Duration() >= tr.slowThresh {
		tr.slow.push(sp.t)
	}
}

// FormatReqTrace renders one trace as a header line plus indented stage and
// note lines — stable for a given trace, so deterministic runs render
// byte-identically.
func FormatReqTrace(t ReqTrace, u Unit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d %s", t.TraceID, t.Op)
	if t.Key != "" {
		fmt.Fprintf(&b, " key=%s", t.Key)
	}
	fmt.Fprintf(&b, " start=%d dur=%s\n", t.Start, FormatValue(t.Duration(), u))
	for _, st := range t.Stages {
		fmt.Fprintf(&b, "  %-20s %-10s", st.Name, FormatValue(st.Dur(), u))
		if st.Detail != "" {
			fmt.Fprintf(&b, " %s", st.Detail)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  ~ [%s] %s", n.Layer, n.Note)
		if n.Overlap > 0 {
			fmt.Fprintf(&b, " overlap=%s", FormatValue(n.Overlap, u))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTraceDump renders a batch of traces oldest-first plus a truncation
// marker when the ring wrapped — the `shardstore trace` / `slowlog` output.
func FormatTraceDump(traces []ReqTrace, truncated uint64, u Unit) string {
	var b strings.Builder
	if truncated > 0 {
		fmt.Fprintf(&b, "... %d earlier traces overwritten ...\n", truncated)
	}
	for _, t := range traces {
		b.WriteString(FormatReqTrace(t, u))
	}
	if b.Len() == 0 {
		return "(no traces)\n"
	}
	return b.String()
}
