package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/store"
)

func newTestStores(tb testing.TB, disks int) []*store.Store {
	tb.Helper()
	var stores []*store.Store
	for i := 0; i < disks; i++ {
		st, _, err := store.New(store.Config{Seed: int64(i + 1), Bugs: faults.NewSet()})
		if err != nil {
			tb.Fatal(err)
		}
		stores = append(stores, st)
	}
	return stores
}

// newWideStores builds stores with production-ish disk geometry and
// auto-flush thresholds — enough extent headroom for high-volume pipeline
// load (the hammer and throughput tests overwrite thousands of shards).
func newWideStores(tb testing.TB, disks int) []*store.Store {
	tb.Helper()
	var stores []*store.Store
	for i := 0; i < disks; i++ {
		cfg := store.Config{Seed: int64(i + 1), Bugs: faults.NewSet()}
		cfg.Disk.PageSize = 4096
		cfg.Disk.PagesPerExtent = 256
		cfg.Disk.ExtentCount = 64
		cfg.MaxMemEntries = 128
		cfg.AutoFlushThreshold = 64
		st, _, err := store.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		stores = append(stores, st)
	}
	return stores
}

func newWideServer(tb testing.TB, disks int) (*Server, *Client) {
	tb.Helper()
	srv := NewServer(newWideStores(tb, disks))
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
	return srv, c
}

func newTestServer(tb testing.TB, disks int) (*Server, *Client) {
	tb.Helper()
	srv := NewServer(newTestStores(tb, disks))
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
	return srv, c
}

func TestPutGetDeleteOverRPC(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 3)
	if err := c.Put(ctx, "shard-1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "shard-1")
	if err != nil || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := c.Delete(ctx, "shard-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "shard-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted shard: %v", err)
	}
}

func TestSteeringSpreadsShards(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 4)
	for i := 0; i < 40; i++ {
		if err := c.Put(ctx, fmt.Sprintf("shard-%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := srv.stats()
	nonEmpty := 0
	for _, n := range stats.ShardsPer {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("steering did not spread shards: %v", stats.ShardsPer)
	}
	if stats.Shards != 40 {
		t.Fatalf("total shards: %d", stats.Shards)
	}
}

func TestSteeringIsStable(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 4)
	if err := c.Put(ctx, "stable-shard", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if srv.steer("stable-shard") != srv.steer("stable-shard") {
		t.Fatal("steering nondeterministic")
	}
	// Overwrite routes to the same disk: the value is replaced, not duplicated.
	if err := c.Put(ctx, "stable-shard", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Get(ctx, "stable-shard")
	if !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("overwrite: %q", v)
	}
	ids, _ := c.List(ctx)
	count := 0
	for _, id := range ids {
		if id == "stable-shard" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shard appears %d times", count)
	}
}

func TestListAcrossDisks(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 3)
	want := map[string]bool{}
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("s%d", i)
		want[id] = true
		if err := c.Put(ctx, id, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 9 {
		t.Fatalf("list: %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected shard %q", id)
		}
	}
}

// TestListPagesAcrossDisks: list pages at a limit below the key count merge
// both disks' pages in order, return a continuation while a disk's page was
// truncated, and walk to the ordered union of the disks' keys.
func TestListPagesAcrossDisks(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	var want []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("s%02d", i)
		want = append(want, id)
		if err := c.Put(ctx, id, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for cursor, pages := "", 0; ; pages++ {
		p, err := c.roundTrip(ctx, &wireReq{op: opList, key: cursor, limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.keys) > 3 {
			t.Fatalf("page %v exceeds limit 3", p.keys)
		}
		// Ten keys over two disks: one disk holds at least five, so its
		// first page of three is truncated.
		if pages == 0 && p.next == "" {
			t.Fatalf("first page %v has no continuation", p.keys)
		}
		got = append(got, p.keys...)
		if p.next == "" {
			break
		}
		cursor = p.next
		if pages > 10 {
			t.Fatal("list never exhausted")
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged list reassembled %v, want %v", got, want)
	}
}

func TestBulkOps(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	ids := []string{"a", "b", "c"}
	vals := [][]byte{{1}, {2}, {3}}
	if err := c.BulkCreate(ctx, ids, vals); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		v, err := c.Get(ctx, id)
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("bulk-created %q: %v %v", id, v, err)
		}
	}
	if err := c.BulkRemove(ctx, []string{"a", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("a not removed")
	}
	if _, err := c.Get(ctx, "b"); err != nil {
		t.Fatal("b removed by mistake")
	}
}

func TestServiceCycleOverRPC(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, 2)
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	disk := srv.steer("k")
	before := srv.Backends()
	if err := c.RemoveDisk(ctx, disk); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "k"); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("out-of-service read: %v", err)
	}
	if err := c.ReturnDisk(ctx, disk); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("after return: %q %v", v, err)
	}
	// Backends names the store the return opened, as a copy: shutting the
	// node down through it reaches the store that holds the data.
	after := srv.Backends()
	if after[disk] == before[disk] || after[1-disk] != before[1-disk] {
		t.Fatal("Backends does not reflect the returned disk's new store")
	}
	after[disk] = nil
	if srv.Backends()[disk] == nil {
		t.Fatal("Backends returned the server's own slice")
	}
}

func TestFlushAndStats(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 2)
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Disks != 2 || stats.Shards != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 1)
	if err := c.Put(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, "empty")
	if err != nil || v == nil || len(v) != 0 {
		t.Fatalf("empty value: %v %v", v, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	srv, _ := newTestServer(t, 2)
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("g%d-s%d", g, i)
				if err := c.Put(ctx, id, []byte{byte(g), byte(i)}); err != nil {
					errs <- err
					return
				}
				v, err := c.Get(ctx, id)
				if err != nil || v[0] != byte(g) {
					errs <- fmt.Errorf("read-after-write %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// newScrubServer builds a one-disk server whose store replicates chunks and
// whose disk accepts silent-corruption injection, returning the raw store and
// disk handles for out-of-band rot.
func newScrubServer(t *testing.T) (*store.Store, *disk.Disk, *Client) {
	t.Helper()
	set := faults.NewSet()
	set.Enable(faults.FaultSilentCorruption)
	dcfg := disk.DefaultConfig()
	dcfg.Faults = set
	st, d, err := store.New(store.Config{
		Disk:     dcfg,
		Seed:     1,
		Bugs:     set,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer([]*store.Store{st})
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
	return st, d, c
}

func TestScrubOverRPC(t *testing.T) {
	ctx := context.Background()
	st, d, c := newScrubServer(t)
	value := []byte("replicated over the wire")
	if err := c.Put(ctx, "wire-shard", value); err != nil {
		t.Fatal(err)
	}
	// Make everything durable so rot on the durable image is observable.
	if _, err := st.FlushIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.FlushSuperblock(); err != nil {
		t.Fatal(err)
	}
	if err := st.Scheduler().Pump(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	entry, err := st.Index().Get("wire-shard")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := store.DecodeEntryGroups(entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("entry groups = %v, want 1 piece × 2 replicas", groups)
	}
	loc := groups[0][0]
	if !d.CorruptPage(loc.Extent, loc.Offset/d.Config().PageSize, disk.RotZero, 1) {
		t.Fatalf("CorruptPage(%v) refused", loc)
	}

	status, err := c.Scrub(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status.Rounds < 1 || status.BadReplicas < 1 || status.Repaired < 1 {
		t.Fatalf("scrub status after repair: %+v", status)
	}
	if len(status.LostShards) != 0 {
		t.Fatalf("k < R rot must be repairable, got lost shards %v", status.LostShards)
	}
	got, err := c.Get(ctx, "wire-shard")
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("get after repair: %q %v", got, err)
	}
	status2, err := c.ScrubStatus(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status2.Repaired != status.Repaired || status2.Rounds != status.Rounds {
		t.Fatalf("scrub_status drifted without scrubbing: %+v vs %+v", status2, status)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.ScrubRounds) != 1 || stats.ScrubRounds[0] != status.Rounds || stats.ScrubLost[0] != 0 {
		t.Fatalf("aggregate scrub stats: %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 1)
	if err := c.Put(ctx, "", []byte("v")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("put without shard id: %v", err)
	}
	if err := c.BulkCreate(ctx, []string{"a"}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("mismatched bulk create: %v", err)
	}
	if _, err := c.MPut(ctx, []string{"a"}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("mismatched mput: %v", err)
	}
	// A bad request must not poison the connection.
	if err := c.Put(ctx, "ok-after-bad", []byte("v")); err != nil {
		t.Fatal(err)
	}
}
