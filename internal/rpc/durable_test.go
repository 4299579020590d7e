package rpc

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"shardstore/internal/store"
)

// newDurableServer builds a server over stores we keep references to, so
// tests can inspect the backends' disks after durable requests.
func newDurableServer(t *testing.T, disks int) ([]*store.Store, *Client) {
	t.Helper()
	stores := newTestStores(t, disks)
	srv := NewServer(stores)
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
	return stores, c
}

// TestPutDurableFlushes: a flagDurable put must be acknowledged only after
// the backend crossed the commit barrier — observable as at least one
// device flush, where a plain put leaves the scheduler untouched.
func TestPutDurableFlushes(t *testing.T) {
	ctx := context.Background()
	stores, c := newDurableServer(t, 1)
	if err := c.Put(ctx, "plain", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := stores[0].Disk().Stats().Syncs; got != 0 {
		t.Fatalf("plain put forced %d device flushes", got)
	}
	if err := c.PutDurable(ctx, "durable", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := stores[0].Disk().Stats().Syncs; got == 0 {
		t.Fatal("durable put acknowledged without a device flush")
	}
	v, err := c.Get(ctx, "durable")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("get after durable put: %q %v", v, err)
	}
}

// TestMPutDurable: batched durable puts across several disks succeed
// per-item and every touched backend flushed at least once.
func TestMPutDurable(t *testing.T) {
	ctx := context.Background()
	stores, c := newDurableServer(t, 3)
	var ids []string
	var vals [][]byte
	for i := 0; i < 12; i++ {
		ids = append(ids, fmt.Sprintf("mshard-%02d", i))
		vals = append(vals, []byte(fmt.Sprintf("payload-%02d", i)))
	}
	errs, err := c.MPutDurable(ctx, ids, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("item %d: %v", i, e)
		}
	}
	flushed := 0
	for _, st := range stores {
		if st.Disk().Stats().Syncs > 0 {
			flushed++
		}
	}
	if flushed == 0 {
		t.Fatal("durable mput acknowledged without any device flush")
	}
	for i, id := range ids {
		v, err := c.Get(ctx, id)
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("get %q: %q %v", id, v, err)
		}
	}
}

// TestPutDurableConcurrent hammers the durable plane from several
// goroutines through one client: the commit barrier must group the
// requests without losing or misacknowledging any.
func TestPutDurableConcurrent(t *testing.T) {
	ctx := context.Background()
	_, c := newDurableServer(t, 2)
	const workers, puts = 8, 10
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("cw%d-%d", w, i)
				if err := c.PutDurable(ctx, key, []byte(key)); err != nil {
					errCh <- fmt.Errorf("%s: %w", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < puts; i++ {
			key := fmt.Sprintf("cw%d-%d", w, i)
			v, err := c.Get(ctx, key)
			if err != nil || !bytes.Equal(v, []byte(key)) {
				t.Fatalf("get %q: %q %v", key, v, err)
			}
		}
	}
}
