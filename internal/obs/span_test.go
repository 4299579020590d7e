package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"shardstore/internal/vsync"
)

func newTestTracer(capacity int, slowThresh uint64) (*Obs, *Tracer) {
	o := New(nil).WithSpans(capacity, slowThresh)
	return o, o.Tracer()
}

// TestSpanLifecycle is the span state-machine table: the legal path, the
// finish-twice latch, post-finish mutation, and the orphaned span.
func TestSpanLifecycle(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		_, tr := newTestTracer(4, 0)
		sp := tr.Start(7, "put", "k1")
		t0 := sp.Now()
		sp.Stage("store.put", t0, "")
		sp.Annotate("test", "manual note")
		sp.Finish()
		traces, trunc := tr.Completed()
		if len(traces) != 1 || trunc != 0 {
			t.Fatalf("completed: %d traces, %d truncated", len(traces), trunc)
		}
		tc := traces[0]
		if tc.TraceID != 7 || tc.Op != "put" || tc.Key != "k1" {
			t.Fatalf("identity: %+v", tc)
		}
		if tc.End <= tc.Start {
			t.Fatalf("span duration not positive: %+v", tc)
		}
		if len(tc.Stages) != 1 || tc.Stages[0].Name != "store.put" {
			t.Fatalf("stages: %+v", tc.Stages)
		}
		if len(tc.Notes) != 1 || tc.Notes[0].Note != "manual note" {
			t.Fatalf("notes: %+v", tc.Notes)
		}
		if tr.ActiveCount() != 0 {
			t.Fatalf("span still active after finish")
		}
	})

	t.Run("finish twice", func(t *testing.T) {
		_, tr := newTestTracer(4, 0)
		sp := tr.Start(0, "get", "")
		sp.Finish()
		traces, _ := tr.Completed()
		end := traces[0].End
		sp.Finish() // must be a no-op
		traces, _ = tr.Completed()
		if len(traces) != 1 {
			t.Fatalf("double finish produced %d traces", len(traces))
		}
		if traces[0].End != end {
			t.Fatalf("double finish moved End: %d -> %d", end, traces[0].End)
		}
	})

	t.Run("mutation after finish", func(t *testing.T) {
		_, tr := newTestTracer(4, 0)
		sp := tr.Start(0, "get", "")
		sp.Finish()
		sp.Stage("late", sp.Now(), "")
		sp.Annotate("late", "late")
		sp.SetKey("late")
		traces, _ := tr.Completed()
		tc := traces[0]
		if len(tc.Stages) != 0 || len(tc.Notes) != 0 || tc.Key != "" || tc.Op != "get" {
			t.Fatalf("post-finish mutation leaked into completed trace: %+v", tc)
		}
	})

	t.Run("orphaned span", func(t *testing.T) {
		_, tr := newTestTracer(4, 0)
		tr.Start(0, "put", "never-finished")
		if tr.ActiveCount() != 1 {
			t.Fatalf("active = %d", tr.ActiveCount())
		}
		traces, _ := tr.Completed()
		if len(traces) != 0 {
			t.Fatalf("orphan leaked into completed ring: %+v", traces)
		}
	})

	t.Run("nil safety", func(t *testing.T) {
		var tr *Tracer
		sp := tr.Start(1, "put", "k")
		if sp != nil {
			t.Fatal("nil tracer handed out a span")
		}
		sp.Stage("x", sp.Now(), "")
		sp.Annotate("x", "y")
		sp.SetKey("k")
		sp.Finish()
		if sp.StartTick() != 0 || sp.TraceID() != 0 {
			t.Fatal("nil span ticks")
		}
		tr.Background("x", "y").End()
		if n, _ := tr.Completed(); n != nil {
			t.Fatal("nil tracer completed traces")
		}
		if n, _ := tr.Slow(); n != nil {
			t.Fatal("nil tracer slow traces")
		}
		var o *Obs
		if o.Tracer() != nil {
			t.Fatal("nil obs tracer")
		}
	})
}

// TestBackgroundOverlap: background windows stamp overlap notes on the spans
// they overlap — including partial overlaps on both sides — and compact-layer
// overlap feeds the compact.interference histogram.
func TestBackgroundOverlap(t *testing.T) {
	o, tr := newTestTracer(8, 0)

	// Window fully inside the span's lifetime, ended before Finish.
	sp := tr.Start(0, "put", "k")
	bg := tr.Background("compact", "L1<-3 runs")
	bgStart := sp.Now() // advance the clock a few ticks
	_ = bgStart
	bg.End()
	sp.Finish()
	traces, _ := tr.Completed()
	tc := traces[0]
	if len(tc.Notes) != 1 || tc.Notes[0].Layer != "compact" {
		t.Fatalf("notes: %+v", tc.Notes)
	}
	if tc.Notes[0].Overlap == 0 {
		t.Fatalf("zero overlap for enclosed window: %+v", tc.Notes[0])
	}
	snap := o.Snapshot()
	ih := snap.Histograms[StageInterference]
	if ih.Count != 1 || ih.Sum != tc.Notes[0].Overlap {
		t.Fatalf("interference histogram: %+v (want sum %d)", ih, tc.Notes[0].Overlap)
	}

	// Window still open at Finish: the span is stamped with overlap-so-far.
	sp2 := tr.Start(0, "get", "k")
	bg2 := tr.Background("scrub", "round")
	sp2.Finish()
	traces, _ = tr.Completed()
	tc2 := traces[len(traces)-1]
	if len(tc2.Notes) != 1 || tc2.Notes[0].Layer != "scrub" || tc2.Notes[0].Overlap == 0 {
		t.Fatalf("open-window notes: %+v", tc2.Notes)
	}
	// Span started after the window began: overlap is clipped to span start.
	sp3 := tr.Start(0, "get", "k2")
	sp3.Finish()
	traces, _ = tr.Completed()
	tc3 := traces[len(traces)-1]
	if tc3.Notes[0].Overlap >= tc3.Notes[0].Tick+tc3.Duration()+100 {
		t.Fatalf("overlap not clipped to span window: %+v of %+v", tc3.Notes[0], tc3)
	}
	if tc3.Notes[0].Overlap > tc3.Duration() {
		t.Fatalf("overlap %d exceeds span duration %d", tc3.Notes[0].Overlap, tc3.Duration())
	}
	bg2.End()
	bg2.End() // double End must not re-stamp anyone

	// A span finished after the double End sees no residual window.
	sp4 := tr.Start(0, "get", "k3")
	sp4.Finish()
	traces, _ = tr.Completed()
	tc4 := traces[len(traces)-1]
	if len(tc4.Notes) != 0 {
		t.Fatalf("ended window still stamping: %+v", tc4.Notes)
	}
	// scrub overlap must NOT land in compact.interference.
	if ih := o.Snapshot().Histograms[StageInterference]; ih.Count != 1 {
		t.Fatalf("non-compact layer fed interference: %+v", ih)
	}
}

// TestSlowLogThreshold: only spans at or past the threshold land in the slow
// ring; the completed ring holds both.
func TestSlowLogThreshold(t *testing.T) {
	_, tr := newTestTracer(8, 20)
	fast := tr.Start(0, "get", "fast")
	fast.Finish() // 2 ticks
	slow := tr.Start(0, "put", "slow")
	for i := 0; i < 30; i++ {
		slow.Now() // burn ticks so the span crosses the threshold
	}
	slow.Finish()
	completed, _ := tr.Completed()
	if len(completed) != 2 {
		t.Fatalf("completed: %d", len(completed))
	}
	slowTraces, _ := tr.Slow()
	if len(slowTraces) != 1 || slowTraces[0].Key != "slow" {
		t.Fatalf("slow ring: %+v", slowTraces)
	}
	if tr.SlowThreshold() != 20 {
		t.Fatalf("threshold: %d", tr.SlowThreshold())
	}
}

// TestTraceRingWraparound: the completed ring retains the newest traces and
// reports how many older ones were overwritten, and the rendered dump leads
// with that count so a partial trail is never mistaken for the whole run.
func TestTraceRingWraparound(t *testing.T) {
	_, tr := newTestTracer(3, 0)
	for i := 0; i < 5; i++ {
		sp := tr.Start(uint64(100+i), "put", "k")
		sp.Finish()
	}
	traces, trunc := tr.Completed()
	if len(traces) != 3 || trunc != 2 {
		t.Fatalf("got %d traces, %d truncated", len(traces), trunc)
	}
	for i, tc := range traces {
		if want := uint64(100 + 2 + i); tc.TraceID != want {
			t.Fatalf("trace %d: id %d, want %d (oldest-first)", i, tc.TraceID, want)
		}
	}
	out := FormatTraceDump(traces, trunc, UnitTicks)
	if !strings.HasPrefix(out, "... 2 earlier traces overwritten ...\n") || strings.Count(out, "trace 10") != 3 {
		t.Fatalf("dump without truncation marker or traces: %q", out)
	}
	if out := FormatTraceDump(traces, 0, UnitTicks); strings.Contains(out, "overwritten") {
		t.Fatalf("spurious truncation marker: %q", out)
	}
}

// TestStageHistograms: finishing a span feeds the per-stage histograms
// resolved at construction, through the ordinary registry snapshot.
func TestStageHistograms(t *testing.T) {
	o, tr := newTestTracer(4, 0)
	sp := tr.Start(0, "put", "k")
	t0 := sp.Now()
	sp.Stage(StageQueueWait, t0, "")
	t1 := sp.Now()
	sp.Stage(StageDiskSync, t1, "leader group=2")
	t2 := sp.Now()
	sp.Stage(StageReply, t2, "")
	sp.Finish()
	snap := o.Snapshot()
	for _, name := range []string{StageQueueWait, StageDiskSync, StageReply} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 1 {
			t.Fatalf("stage histogram %s missing or empty: %+v", name, h)
		}
	}
	if c := snap.Counters["trace.spans"]; c != 1 {
		t.Fatalf("trace.spans = %d", c)
	}
}

// TestTraceDeterministicReplay: under LogicalClock an identical call
// sequence renders byte-identical trace dumps — the replay property the
// conformance harness relies on.
func TestTraceDeterministicReplay(t *testing.T) {
	run := func() string {
		_, tr := newTestTracer(8, 5)
		sp := tr.Start(42, "put", "shard-9")
		t0 := sp.Now()
		sp.Stage(StageQueueWait, t0, "")
		bg := tr.Background("compact", "L2<-4 runs")
		t1 := sp.Now()
		sp.Stage(StageDiskSync, t1, "leader group=3")
		bg.End()
		sp.Finish()
		traces, trunc := tr.Completed()
		return FormatTraceDump(traces, trunc, UnitTicks)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{"trace 42 put key=shard-9", StageQueueWait, "leader group=3", "~ [compact] L2<-4 runs overlap="} {
		if !strings.Contains(a, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, a)
		}
	}
}

// TestStageSumWithinSpan: stages recorded through the public API stay within
// the parent span and their durations sum to at most the span's duration.
func TestStageSumWithinSpan(t *testing.T) {
	_, tr := newTestTracer(4, 0)
	sp := tr.Start(0, "put", "k")
	for i := 0; i < 3; i++ {
		t0 := sp.Now()
		sp.Stage("s", t0, "")
	}
	sp.Finish()
	traces, _ := tr.Completed()
	tc := traces[0]
	var sum uint64
	for _, st := range tc.Stages {
		if st.Start < tc.Start || st.End > tc.End {
			t.Fatalf("stage outside span: %+v not in [%d,%d]", st, tc.Start, tc.End)
		}
		sum += st.Dur()
	}
	if sum > tc.Duration() {
		t.Fatalf("stage sum %d exceeds span duration %d", sum, tc.Duration())
	}
}

// TestReqTraceJSONRoundTrip: ReqTrace survives the wire encoding used by the
// trace RPC op.
func TestReqTraceJSONRoundTrip(t *testing.T) {
	_, tr := newTestTracer(4, 0)
	sp := tr.Start(9, "put", "k")
	t0 := sp.Now()
	sp.Stage(StageDiskSync, t0, "leader group=2")
	sp.Annotate("compact", "note")
	sp.Finish()
	traces, _ := tr.Completed()
	blob, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	var back []ReqTrace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if FormatTraceDump(back, 0, UnitTicks) != FormatTraceDump(traces, 0, UnitTicks) {
		t.Fatalf("JSON round trip changed the trace:\n%s\nvs\n%s",
			FormatTraceDump(back, 0, UnitTicks), FormatTraceDump(traces, 0, UnitTicks))
	}
}

// TestSpanHammer drives concurrent span start/stage/annotate/finish, a
// background-window churner, and snapshot/dump readers across real
// goroutines — the -race target for the tracer's single-mutex design.
func TestSpanHammer(t *testing.T) {
	o, tr := newTestTracer(32, 1)
	const workers, per = 8, 200
	handles := make([]vsync.Handle, 0, workers+2)
	for w := 0; w < workers; w++ {
		w := w
		handles = append(handles, vsync.Go("spans", func() {
			for i := 0; i < per; i++ {
				sp := tr.Start(0, "put", "k")
				t0 := sp.Now()
				sp.Stage(StageQueueWait, t0, "")
				if i%3 == 0 {
					sp.Annotate("test", "note")
				}
				if w%2 == 0 && i%7 == 0 {
					sp.Finish()
					sp.Finish() // racing double finish must stay safe
				} else {
					sp.Finish()
				}
			}
		}))
	}
	handles = append(handles, vsync.Go("bg", func() {
		for i := 0; i < per; i++ {
			bg := tr.Background("compact", "step")
			bg.End()
		}
	}))
	handles = append(handles, vsync.Go("readers", func() {
		for i := 0; i < per; i++ {
			tr.Completed()
			tr.Slow()
			tr.ActiveCount()
			o.Snapshot()
		}
	}))
	for _, h := range handles {
		h.Join()
	}
	if got := o.Snapshot().Counters["trace.spans"]; got != workers*per {
		t.Fatalf("finished spans: %d, want %d", got, workers*per)
	}
	if tr.ActiveCount() != 0 {
		t.Fatalf("active spans leaked: %d", tr.ActiveCount())
	}
	if _, trunc := tr.Completed(); trunc != workers*per-32 {
		t.Fatalf("truncated: %d", trunc)
	}
}
