package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"shardstore/internal/faults"
	"shardstore/internal/store"
)

// gatedKV wraps a real store and blocks Get on designated keys until the
// test releases them — the test double for out-of-order, cancellation, and
// timeout semantics. The server runs each request in its own worker, so a
// blocked Get must not stall the rest of the pipeline.
type gatedKV struct {
	store.KV
	gates map[string]chan struct{}
}

func (g *gatedKV) Get(shardID string) ([]byte, error) {
	if gate, ok := g.gates[shardID]; ok {
		<-gate
	}
	return g.KV.Get(shardID)
}

// newGatedServer builds a one-disk server whose Get blocks on the given
// keys, plus a connected v2 client.
func newGatedServer(t *testing.T, gatedKeys ...string) (*Server, *Client, map[string]chan struct{}) {
	t.Helper()
	st, _, err := store.New(store.Config{Seed: 1, Bugs: faults.NewSet()})
	if err != nil {
		t.Fatal(err)
	}
	gates := make(map[string]chan struct{})
	for _, k := range gatedKeys {
		gates[k] = make(chan struct{})
	}
	srv := NewServerKV([]store.KV{&gatedKV{KV: st, gates: gates}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return srv, c, gates
}

// release opens a gate exactly once (safe to call from Cleanup too).
func release(gate chan struct{}) {
	select {
	case <-gate:
	default:
		close(gate)
	}
}

// TestOutOfOrderCompletion: a slow Get issued first must not block a fast
// Put issued after it on the same connection — responses return out of
// order.
func TestOutOfOrderCompletion(t *testing.T) {
	ctx := context.Background()
	_, c, gates := newGatedServer(t, "slow")
	t.Cleanup(func() { release(gates["slow"]) })

	if err := c.Put(ctx, "slow", []byte("blocked value")); err != nil {
		t.Fatal(err)
	}
	slow := c.GoGet("slow") // server-side handler parks on the gate

	// The pipeline stays live: this full round trip completes while the
	// earlier request is still parked.
	if err := c.Put(ctx, "fast", []byte("v")); err != nil {
		t.Fatalf("put behind a slow get: %v", err)
	}
	v, err := c.Get(ctx, "fast")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("get behind a slow get: %q %v", v, err)
	}

	release(gates["slow"])
	got, err := slow.Wait(ctx)
	if err != nil || !bytes.Equal(got, []byte("blocked value")) {
		t.Fatalf("slow get after release: %q %v", got, err)
	}
}

// TestPerCallCancellation: cancelling one call's context abandons only that
// request id; the late response is discarded and the connection survives.
func TestPerCallCancellation(t *testing.T) {
	ctx := context.Background()
	_, c, gates := newGatedServer(t, "slow")
	t.Cleanup(func() { release(gates["slow"]) })

	if err := c.Put(ctx, "slow", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	slow := c.GoGet("slow")
	cancel()
	if _, err := slow.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v", err)
	}

	// The connection survives; the discarded late response does not cross
	// wires with new calls.
	release(gates["slow"])
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("after-cancel-%d", i)
		if err := c.Put(ctx, id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		v, err := c.Get(ctx, id)
		if err != nil || v[0] != byte(i) {
			t.Fatalf("call after cancellation %d: %q %v", i, v, err)
		}
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map not drained: %d", n)
	}
}

// TestTimeoutConnectionSurvives: a per-call context deadline is the only
// timeout mechanism; a timed-out call abandons its request id and the SAME
// client keeps working.
func TestTimeoutConnectionSurvives(t *testing.T) {
	ctx := context.Background()
	_, c, gates := newGatedServer(t, "stalled")
	t.Cleanup(func() { release(gates["stalled"]) })

	if err := c.Put(ctx, "stalled", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now() //shardlint:allow determinism wall-clock upper bound on client timeout, not a replayed path
	_, err := c.Get(tctx, "stalled")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second { //shardlint:allow determinism wall-clock upper bound on client timeout, not a replayed path
		t.Fatalf("timeout took %v", elapsed)
	}

	// Same connection, next call (no deadline): healthy.
	if err := c.Put(ctx, "fine", []byte("v2")); err != nil {
		t.Fatalf("connection did not survive the timeout: %v", err)
	}
	v, err := c.Get(ctx, "fine")
	if err != nil || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("read after timeout: %q %v", v, err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map not drained: %d", n)
	}
}

// TestDemuxCleanupOnServerClose: when the server closes mid-flight, every
// pending call fails promptly and the pending map drains.
func TestDemuxCleanupOnServerClose(t *testing.T) {
	ctx := context.Background()
	srv, c, gates := newGatedServer(t, "slow")

	if err := c.Put(ctx, "slow", []byte("v")); err != nil {
		t.Fatal(err)
	}
	calls := make([]*Call, 4)
	for i := range calls {
		calls[i] = c.GoGet("slow")
	}

	// Close in the background: it tears down the connection immediately,
	// then blocks until the parked handlers drain.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	for i, call := range calls {
		if _, err := call.Wait(ctx); err == nil {
			t.Fatalf("call %d survived server close", i)
		}
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map not drained after server close: %d", n)
	}
	release(gates["slow"])
	<-closed
}

// TestMultiOps: MPut/MGet/MDelete are one frame each with per-item status
// codes; a missing shard fails only its own slot.
func TestMultiOps(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 3)
	ids := make([]string, 12)
	vals := make([][]byte, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%02d", i)
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, 8+i)
	}
	perr, err := c.MPut(ctx, ids, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range perr {
		if e != nil {
			t.Fatalf("mput item %d: %v", i, e)
		}
	}

	probe := append([]string{"missing-shard"}, ids...)
	res, err := c.MGet(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrNotFound) {
		t.Fatalf("missing item: %+v", res[0])
	}
	for i, id := range ids {
		r := res[i+1]
		if r.Err != nil || !bytes.Equal(r.Value, vals[i]) {
			t.Fatalf("mget %s: %q %v", id, r.Value, r.Err)
		}
	}

	derr, err := c.MDelete(ctx, ids[:6])
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range derr {
		if e != nil {
			t.Fatalf("mdelete item %d: %v", i, e)
		}
	}
	res, err = c.MGet(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if i < 6 && !errors.Is(res[i].Err, ErrNotFound) {
			t.Fatalf("deleted item %d still readable: %+v", i, res[i])
		}
		if i >= 6 && res[i].Err != nil {
			t.Fatalf("surviving item %d: %v", i, res[i].Err)
		}
	}
}

// minimalKV is a KV-only backend (no scrubber, no scheduler, no metrics):
// the request plane must work and the control plane must answer
// CodeUnsupported instead of panicking.
type minimalKV struct{ store.KV }

func TestKVOnlyBackend(t *testing.T) {
	ctx := context.Background()
	st, _, err := store.New(store.Config{Seed: 1, Bugs: faults.NewSet()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerKV([]store.KV{minimalKV{KV: st}})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("kv-only get: %q %v", v, err)
	}
	if err := c.Flush(ctx, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("flush on kv-only backend: %v", err)
	}
	if _, err := c.Scrub(ctx, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("scrub on kv-only backend: %v", err)
	}
	if err := c.RemoveDisk(ctx, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("remove_disk on kv-only backend: %v", err)
	}
	// Stats degrade gracefully: listing works, instrumented columns zero.
	stats, err := c.Stats(ctx)
	if err != nil || stats.Shards != 1 {
		t.Fatalf("kv-only stats: %+v %v", stats, err)
	}
}
