package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"shardstore/internal/disk"
	"shardstore/internal/obs"
)

// newTracedServer builds a server whose Obs carries a span tracer on the
// deterministic logical clock, plus a v2 client with tracing requested.
func newTracedServer(tb testing.TB, disks int, slowThresh uint64) (*Server, *Client) {
	tb.Helper()
	o := obs.New(nil).WithSpans(64, slowThresh)
	srv := NewServer(newTestStores(tb, disks), o)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	c.SetTracing(true)
	return srv, c
}

// waitTrace polls the server tracer until pred finds a trace: the server
// finishes a span only after the reply bytes hit the wire, so the trace can
// land moments after the client sees the response.
func waitTrace(tb testing.TB, srv *Server, pred func(obs.ReqTrace) bool) obs.ReqTrace {
	tb.Helper()
	for i := 0; i < 500; i++ {
		traces, _ := srv.tracer.Completed()
		for _, tr := range traces {
			if pred(tr) {
				return tr
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatal("trace never completed on the server")
	return obs.ReqTrace{}
}

// TestTraceFlagRoundTrip: the traced bit travels with the request, the
// server echoes it on the response (the negotiation signal), and the frame's
// request id doubles as the server-side trace id.
func TestTraceFlagRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv, c := newTracedServer(t, 2, 0)

	call := c.submit(&wireReq{op: opPut, key: "shard-1", value: []byte("v")})
	if _, err := call.waitResp(ctx); err != nil {
		t.Fatal(err)
	}
	if call.flags&flagTraced == 0 {
		t.Fatalf("tracing server did not echo the traced flag (flags=%#x)", call.flags)
	}
	tr := waitTrace(t, srv, func(tr obs.ReqTrace) bool { return tr.TraceID == call.id })
	if tr.Op != "put" || tr.Key != "shard-1" {
		t.Fatalf("trace identity: %+v (want op=put key=shard-1 id=%d)", tr, call.id)
	}

	// An untraced request on the same connection: no echo, no trace.
	c.SetTracing(false)
	call = c.submit(&wireReq{op: opGet, key: "shard-1"})
	if _, err := call.waitResp(ctx); err != nil {
		t.Fatal(err)
	}
	if call.flags&flagTraced != 0 {
		t.Fatalf("untraced request got the traced echo (flags=%#x)", call.flags)
	}
	if traces, _ := srv.tracer.Completed(); len(traces) != 1 {
		t.Fatalf("untraced request produced a trace: %d traces", len(traces))
	}
}

// TestTraceFlagAgainstUntracedServer: a client may request tracing from a
// server that has none — the flag is ignored, the echo stays clear, and the
// trace op reports unsupported.
func TestTraceFlagAgainstUntracedServer(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	c.SetTracing(true)

	call := c.submit(&wireReq{op: opPut, key: "shard-1", value: []byte("v")})
	if _, err := call.waitResp(ctx); err != nil {
		t.Fatal(err)
	}
	if call.flags&flagTraced != 0 {
		t.Fatalf("tracing-disabled server echoed the traced flag (flags=%#x)", call.flags)
	}
	if _, err := c.Trace(ctx); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("trace op on untraced server: %v, want ErrUnsupported", err)
	}
	if _, err := c.SlowLog(ctx); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("slowlog op on untraced server: %v, want ErrUnsupported", err)
	}
}

// TestDurablePutTraceStageSum is the acceptance check from the issue: a
// durable put through RPC v2 yields a trace whose stages sit inside the
// parent span, sum to at most its duration, and cover the whole path —
// queue wait, store op, the group-commit leader's sync, reply write.
func TestDurablePutTraceStageSum(t *testing.T) {
	ctx := context.Background()
	srv, c := newTracedServer(t, 2, 0)
	if err := c.PutDurable(ctx, "shard-1", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	tr := waitTrace(t, srv, func(tr obs.ReqTrace) bool { return tr.Op == "put" })

	var sum uint64
	names := make(map[string]string)
	for _, st := range tr.Stages {
		if st.Start < tr.Start || st.End > tr.End || st.End < st.Start {
			t.Fatalf("stage outside parent span: %+v not within [%d,%d]", st, tr.Start, tr.End)
		}
		sum += st.Dur()
		names[st.Name] = st.Detail
	}
	if sum > tr.Duration() {
		t.Fatalf("stage durations sum to %d, parent span is only %d:\n%s",
			sum, tr.Duration(), obs.FormatReqTrace(tr, obs.UnitTicks))
	}
	for _, want := range []string{obs.StageQueueWait, "store.put", obs.StageDiskSync, obs.StageReply} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing stage %q in:\n%s", want, obs.FormatReqTrace(tr, obs.UnitTicks))
		}
	}
	if d := names[obs.StageDiskSync]; !strings.HasPrefix(d, "leader group=") {
		t.Fatalf("disk sync stage lost leader attribution: %q", d)
	}
}

// TestTraceOpsOverRPC: the trace and slowlog ops round-trip the server's
// rings over the wire, including the slow threshold and truncation count.
func TestTraceOpsOverRPC(t *testing.T) {
	ctx := context.Background()
	srv, c := newTracedServer(t, 2, 1) // threshold 1 tick: everything is slow
	const puts = 3
	for i := 0; i < puts; i++ {
		if err := c.Put(ctx, fmt.Sprintf("shard-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitTrace(t, srv, func(tr obs.ReqTrace) bool { return tr.Key == fmt.Sprintf("shard-%d", puts-1) })

	d, err := c.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The trace fetch itself may have completed as a trace by now; require
	// at least the puts, oldest-first.
	if len(d.Traces) < puts {
		t.Fatalf("trace op returned %d traces, want >= %d", len(d.Traces), puts)
	}
	for i := 1; i < len(d.Traces); i++ {
		if d.Traces[i].End < d.Traces[i-1].End {
			t.Fatalf("traces not oldest-first: %d before %d", d.Traces[i-1].End, d.Traces[i].End)
		}
	}
	s, err := c.SlowLog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold != 1 {
		t.Fatalf("slowlog threshold over the wire: %d, want 1", s.Threshold)
	}
	if len(s.Traces) < puts {
		t.Fatalf("slowlog returned %d traces, want >= %d", len(s.Traces), puts)
	}
	if out := obs.FormatTraceDump(d.Traces, d.Truncated, obs.UnitTicks); !strings.Contains(out, "store.put") {
		t.Fatalf("rendered dump missing store stage:\n%s", out)
	}
}

// TestTraceStageHistogramsOverMetricsOp: per-stage latency histograms reach
// a plain metrics client — the existing op, no new surface.
func TestTraceStageHistogramsOverMetricsOp(t *testing.T) {
	ctx := context.Background()
	srv, c := newTracedServer(t, 2, 0)
	if err := c.PutDurable(ctx, "shard-1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitTrace(t, srv, func(tr obs.ReqTrace) bool { return tr.Op == "put" })
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.StageQueueWait, obs.StageDiskSync, obs.StageReply, "sched.barrier_wait_leader"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("stage histogram %q missing from metrics op (have %v)", name, len(snap.Histograms))
		}
	}
}

// TestTraceAttributionStress drives concurrent durable writers against a
// tracing server and logs the slowest attributed request — run with -v to
// capture a real slow-op breakdown (EXPERIMENTS.md).
func TestTraceAttributionStress(t *testing.T) {
	ctx := context.Background()
	// Model a device whose cache flush costs real time — the latency the
	// group-commit barrier exists to amortize and the tracer to attribute.
	disk.TestHookPreSync = func() { time.Sleep(300 * time.Microsecond) }
	defer func() { disk.TestHookPreSync = nil }()
	o := obs.New(obs.NewWallClock()).WithSpans(256, uint64(time.Millisecond))
	srv := NewServer(newWideStores(t, 2), o)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetTracing(true)
			val := bytes.Repeat([]byte{byte(w)}, 1024)
			for i := 0; i < perWriter; i++ {
				if err := c.PutDurable(ctx, fmt.Sprintf("shard-%d-%d", w, i), val); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Let in-flight reply spans finish, then pick the slowest trace.
	var slowest obs.ReqTrace
	for i := 0; i < 100; i++ {
		traces, _ := srv.tracer.Completed()
		for _, tr := range traces {
			if tr.Duration() > slowest.Duration() {
				slowest = tr
			}
		}
		if srv.tracer.ActiveCount() == 0 && slowest.Duration() > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if slowest.Duration() == 0 {
		t.Fatal("stress run produced no traces")
	}
	var staged uint64
	for _, st := range slowest.Stages {
		staged += st.Dur()
	}
	t.Logf("slowest of %d durable puts (%d writers):\n%s", writers*perWriter, writers,
		obs.FormatReqTrace(slowest, obs.UnitNanos))
	t.Logf("attributed %d of %d ns (%.0f%%)", staged, slowest.Duration(),
		100*float64(staged)/float64(slowest.Duration()))
	slow, _ := srv.tracer.Slow()
	t.Logf("slow log retained %d of %d requests over threshold", len(slow), writers*perWriter)
}
