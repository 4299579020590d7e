package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestMetricsOp: the metrics op returns the host-wide merged snapshot — the
// rpc layer's own counters plus every store's registry.
func TestMetricsOp(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	for i := 0; i < 10; i++ {
		if err := c.Put(ctx, fmt.Sprintf("m-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Pump both disks so the scheduler's buffered chunk writes actually reach
	// the disk layer (write metrics are recorded at WriteAt, not at staging).
	for i := 0; i < 2; i++ {
		if err := c.Flush(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["store.puts"] != 10 || snap.Counters["store.gets"] != 10 {
		t.Fatalf("store counters: puts=%d gets=%d", snap.Counters["store.puts"], snap.Counters["store.gets"])
	}
	if snap.Counters["rpc.requests"] < 20 {
		t.Fatalf("rpc.requests = %d, want >= 20", snap.Counters["rpc.requests"])
	}
	if snap.Counters["rpc.bytes_in"] == 0 || snap.Counters["rpc.bytes_out"] == 0 {
		t.Fatalf("wire byte counters not recorded: in=%d out=%d",
			snap.Counters["rpc.bytes_in"], snap.Counters["rpc.bytes_out"])
	}
	if h := snap.Histograms["rpc.put_lat"]; h.Count != 10 {
		t.Fatalf("rpc.put_lat count = %d, want 10", h.Count)
	}
	if h := snap.Histograms["rpc.pipeline_depth"]; h.Count == 0 {
		t.Fatal("rpc.pipeline_depth never observed")
	}
	if h := snap.Histograms["disk.write_lat"]; h.Count == 0 {
		t.Fatal("disk.write_lat never observed — disk registry not merged")
	}
}

// TestNodeProbesOff: a production node's Obs has the coverage-probe table
// off, so a probe hit on the serving path allocates nothing and the metrics
// reply carries no "probes" key — its bytes are what they were before probes
// lived in obs.
func TestNodeProbesOff(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 1)
	if err := c.Put(ctx, "p", []byte("v")); err != nil {
		t.Fatal(err)
	}
	kv, err := srv.kvForKey("p")
	if err != nil {
		t.Fatal(err)
	}
	o := kv.Obs()
	if allocs := testing.AllocsPerRun(1000, func() { o.Hit("store.put") }); allocs != 0 {
		t.Fatalf("Hit with probes off: %.1f allocs per call, want 0", allocs)
	}
	blob, err := json.Marshal(srv.metrics())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"probes"`)) {
		t.Fatalf("metrics reply carries a probes key: %s", blob)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Probes != nil || snap.Counters["store.puts"] != 1 {
		t.Fatalf("metrics over the wire: probes=%v store.puts=%d", snap.Probes, snap.Counters["store.puts"])
	}
}

// TestStatsMetricsHammer drives puts/gets/deletes from several goroutines
// while other goroutines continuously pull stats and metrics snapshots. Run
// under -race by the CI obs leg: any unsynchronized read between the snapshot
// paths and the hot paths shows up here.
func TestStatsMetricsHammer(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 2)
	addr := srv.ln.Addr().String()

	const writers, readers, opsPer = 4, 3, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			for i := 0; i < opsPer; i++ {
				id := fmt.Sprintf("h-%d-%d", w, i%8)
				if err := wc.Put(ctx, id, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
				if _, err := wc.Get(ctx, id); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
				if i%5 == 4 {
					if err := wc.Delete(ctx, id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			for i := 0; i < opsPer; i++ {
				if _, err := rc.Stats(ctx); err != nil {
					errs <- err
					return
				}
				if _, err := rc.Metrics(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles the merged snapshot must be internally
	// consistent: rpc saw every request, and the store-level counters bound
	// the rpc-level ones.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["store.puts"] != writers*opsPer {
		t.Fatalf("store.puts = %d, want %d", snap.Counters["store.puts"], writers*opsPer)
	}
	if snap.Histograms["store.put_lat"].Count != writers*opsPer {
		t.Fatalf("store.put_lat count = %d, want %d", snap.Histograms["store.put_lat"].Count, writers*opsPer)
	}
}

// TestSharedClientPipelineHammer: the headline v2 concurrency contract — ONE
// client shared by many goroutines, each keeping a deep pipeline in flight.
// Run under -race by the CI rpc leg: the demux loop, the pending map, the
// write mutex, and the server's per-connection worker pool are all exercised
// simultaneously.
func TestSharedClientPipelineHammer(t *testing.T) {
	ctx := context.Background()
	_, c := newWideServer(t, 4)

	const goroutines = 8
	const depth = 64
	const rounds = 4

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Fill the window: depth puts in flight before the first wait.
				calls := make([]*Call, depth)
				for i := range calls {
					id := fmt.Sprintf("hammer-%d-%d", g, i)
					calls[i] = c.GoPut(id, []byte{byte(g), byte(r), byte(i)})
				}
				for i, call := range calls {
					if _, err := call.Wait(ctx); err != nil {
						errs <- fmt.Errorf("g%d r%d put %d: %w", g, r, i, err)
						return
					}
				}
				// Same window shape on the read side, verifying payloads.
				gets := make([]*Call, depth)
				for i := range gets {
					gets[i] = c.GoGet(fmt.Sprintf("hammer-%d-%d", g, i))
				}
				for i, call := range gets {
					v, err := call.Wait(ctx)
					if err != nil {
						errs <- fmt.Errorf("g%d r%d get %d: %w", g, r, i, err)
						return
					}
					want := []byte{byte(g), byte(r), byte(i)}
					if !bytes.Equal(v, want) {
						errs <- fmt.Errorf("g%d r%d get %d: cross-wired response %v != %v", g, r, i, v, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map not drained after hammer: %d", n)
	}
}
