package store

import (
	"bytes"
	"math/rand"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
)

func testConfig(seed int64) Config {
	return Config{
		Disk: disk.DefaultConfig(),
		Seed: seed,
		Bugs: faults.NewSet(),
	}
}

func mustOpen(t *testing.T, cfg Config) (*Store, *disk.Disk) {
	t.Helper()
	s, d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, d
}

func TestPutGetDelete(t *testing.T) {
	s, _ := mustOpen(t, testConfig(1))
	if _, err := s.Put("shard-a", []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("shard-a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, want hello", got)
	}
	if _, err := s.Delete("shard-a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("shard-a"); err != ErrNotFound {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

func TestGetAbsent(t *testing.T) {
	s, _ := mustOpen(t, testConfig(2))
	if _, err := s.Get("nope"); err != ErrNotFound {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
}

func TestLargeValueSpansChunks(t *testing.T) {
	s, _ := mustOpen(t, testConfig(3))
	val := make([]byte, 700) // several chunks at default max payload
	for i := range val {
		val[i] = byte(i)
	}
	if _, err := s.Put("big", val); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("big")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("Get returned %d bytes, mismatch", len(got))
	}
}

func TestOverwrite(t *testing.T) {
	s, _ := mustOpen(t, testConfig(4))
	for i := 0; i < 5; i++ {
		val := []byte{byte(i), byte(i + 1)}
		if _, err := s.Put("k", val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		got, err := s.Get("k")
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get %d = %q, %v", i, got, err)
		}
	}
}

func TestPutDependencyBecomesPersistent(t *testing.T) {
	s, _ := mustOpen(t, testConfig(5))
	d, err := s.Put("k", []byte("v"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if d.IsPersistent() {
		t.Fatal("dependency persistent before any flush")
	}
	if err := s.Pump(); err != nil {
		t.Fatalf("Pump: %v", err)
	}
	if !d.IsPersistent() {
		t.Fatal("dependency not persistent after pump")
	}
}

func TestCleanShutdownForwardProgress(t *testing.T) {
	s, _ := mustOpen(t, testConfig(6))
	var deps []interface{ IsPersistent() bool }
	for i := 0; i < 10; i++ {
		d, err := s.Put(string(rune('a'+i)), []byte{byte(i)})
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		deps = append(deps, d)
	}
	dd, err := s.Delete("a")
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	deps = append(deps, dd)
	if err := s.CleanShutdown(); err != nil {
		t.Fatalf("CleanShutdown: %v", err)
	}
	for i, d := range deps {
		if !d.IsPersistent() {
			t.Fatalf("dep %d not persistent after clean shutdown", i)
		}
	}
}

func TestCleanRebootKeepsData(t *testing.T) {
	cfg := testConfig(7)
	s, d := mustOpen(t, cfg)
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := string(rune('a' + i))
		v := bytes.Repeat([]byte{byte(i + 1)}, i*37+1)
		if _, err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	if _, err := s.Delete("c"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "c")
	if err := s.CleanShutdown(); err != nil {
		t.Fatalf("CleanShutdown: %v", err)
	}
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for k, v := range want {
		got, err := s2.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after reboot Get(%q) = %q, %v; want %q", k, got, err, v)
		}
	}
	if _, err := s2.Get("c"); err != ErrNotFound {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

func TestCrashPersistedDataSurvives(t *testing.T) {
	cfg := testConfig(8)
	s, d := mustOpen(t, cfg)
	dp, err := s.Put("k", []byte("durable"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Pump(); err != nil {
		t.Fatalf("Pump: %v", err)
	}
	if !dp.IsPersistent() {
		t.Fatal("put not persistent after pump")
	}
	// Unpersisted second put.
	if _, err := s.Put("k2", []byte("volatile")); err != nil {
		t.Fatalf("Put2: %v", err)
	}
	s.Crash(rand.New(rand.NewSource(99)))
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := s2.Get("k")
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("persistent shard lost: %q, %v", got, err)
	}
}

func TestReclaimPreservesLiveData(t *testing.T) {
	cfg := testConfig(9)
	s, _ := mustOpen(t, cfg)
	want := map[string][]byte{}
	// Fill several extents, delete half the shards, reclaim, verify.
	for i := 0; i < 20; i++ {
		k := string(rune('a' + i))
		v := bytes.Repeat([]byte{byte(i + 1)}, 150)
		if _, err := s.Put(k, v); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		want[k] = v
	}
	if err := s.Pump(); err != nil {
		t.Fatalf("Pump: %v", err)
	}
	for i := 0; i < 20; i += 2 {
		k := string(rune('a' + i))
		if _, err := s.Delete(k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		delete(want, k)
	}
	if err := s.Pump(); err != nil {
		t.Fatalf("Pump: %v", err)
	}
	for i := 0; i < 10; i++ {
		ran, err := s.ReclaimAuto()
		if err != nil {
			t.Fatalf("ReclaimAuto: %v", err)
		}
		if !ran {
			break
		}
		if err := s.Pump(); err != nil {
			t.Fatalf("Pump after reclaim: %v", err)
		}
	}
	for k, v := range want {
		got, err := s.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after reclaim Get(%q) = %v (len %d)", k, err, len(got))
		}
	}
	if s.Chunks().Stats().ExtentsRecycled == 0 {
		t.Fatal("no extents were recycled")
	}
}

func TestRemoveReturnService(t *testing.T) {
	cfg := testConfig(10)
	s, _ := mustOpen(t, cfg)
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.RemoveFromService(); err != nil {
		t.Fatalf("RemoveFromService: %v", err)
	}
	if _, err := s.Get("k"); err != ErrOutOfService {
		t.Fatalf("Get out of service = %v", err)
	}
	s2, err := s.ReturnToService()
	if err != nil {
		t.Fatalf("ReturnToService: %v", err)
	}
	got, err := s2.Get("k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("after return Get = %q, %v", got, err)
	}
}

func TestBug4LosesShardAcrossServiceCycle(t *testing.T) {
	cfg := testConfig(11)
	cfg.Bugs.Enable(faults.Bug4DiskReturnLosesShard)
	s, _ := mustOpen(t, cfg)
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.RemoveFromService(); err != nil {
		t.Fatalf("RemoveFromService: %v", err)
	}
	s2, err := s.ReturnToService()
	if err != nil {
		t.Fatalf("ReturnToService: %v", err)
	}
	if _, err := s2.Get("k"); err == nil {
		t.Fatal("bug #4 enabled but shard survived the service cycle")
	}
}

func TestListMatchesCatalog(t *testing.T) {
	s, _ := mustOpen(t, testConfig(12))
	ids := []string{"b", "a", "c"}
	for _, id := range ids {
		if _, err := s.Put(id, []byte(id)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	got, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
}

func TestBulkCreateRemove(t *testing.T) {
	s, _ := mustOpen(t, testConfig(13))
	ids := []string{"x", "y", "z"}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	if _, err := s.BulkCreate(ids, vals); err != nil {
		t.Fatalf("BulkCreate: %v", err)
	}
	if _, err := s.BulkRemove([]string{"y"}); err != nil {
		t.Fatalf("BulkRemove: %v", err)
	}
	got, _ := s.List()
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Fatalf("List after bulk remove = %v", got)
	}
	if _, err := s.Get("y"); err != ErrNotFound {
		t.Fatalf("removed shard still readable: %v", err)
	}
}

func TestManyRunsCompaction(t *testing.T) {
	cfg := testConfig(14)
	s, _ := mustOpen(t, cfg)
	for round := 0; round < 10; round++ {
		k := string(rune('a' + round%4))
		if _, err := s.Put(k, []byte{byte(round)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, err := s.FlushIndex(); err != nil {
			t.Fatalf("FlushIndex: %v", err)
		}
	}
	if s.Index().RunCount() > 7 {
		t.Fatalf("auto-compaction did not bound runs: %d", s.Index().RunCount())
	}
	for round := 6; round < 10; round++ {
		k := string(rune('a' + round%4))
		got, err := s.Get(k)
		if err != nil || got[0] != byte(round) {
			t.Fatalf("Get(%q) = %v %v", k, got, err)
		}
	}
}

func TestCrashRecoverLoop(t *testing.T) {
	cfg := testConfig(15)
	s, d := mustOpen(t, cfg)
	rng := rand.New(rand.NewSource(42))
	persisted := map[string][]byte{}
	for round := 0; round < 6; round++ {
		k := string(rune('a' + round))
		v := bytes.Repeat([]byte{byte(round + 1)}, 40)
		dp, err := s.Put(k, v)
		if err != nil {
			t.Fatalf("round %d Put: %v", round, err)
		}
		if round%2 == 0 {
			if err := s.Pump(); err != nil {
				t.Fatalf("round %d Pump: %v", round, err)
			}
			if !dp.IsPersistent() {
				t.Fatalf("round %d: dep not persistent after pump", round)
			}
			persisted[k] = v
		}
		s.Crash(rng)
		s2, err := Open(d, cfg)
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		s = s2
		for pk, pv := range persisted {
			got, err := s.Get(pk)
			if err != nil || !bytes.Equal(got, pv) {
				t.Fatalf("round %d: persistent shard %q lost: %v", round, pk, err)
			}
		}
	}
}

// TestGetResultIsCallerOwned: Get and Scan hand back the chunk store's own
// read buffer (one piece) or a buffer assembled for the call (several), never
// bytes the cache or a later reader holds. So whatever the caller does to a
// result — overwrite every byte, append past its end — the next read, from
// the cache or from disk, still returns what was put.
func TestGetResultIsCallerOwned(t *testing.T) {
	s, _ := mustOpen(t, testConfig(31))
	pattern := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*3 + salt
		}
		return b
	}
	// One chunk, several chunks (the default piece is a page and a half),
	// and a piece boundary exactly at the end.
	want := map[string][]byte{
		"a-one":   pattern(100, 1),
		"b-multi": pattern(700, 2),
		"c-exact": pattern(2*s.maxChunkPayload(), 3),
	}
	for k, v := range want {
		if _, err := s.Put(k, v); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	// No flush: every index entry is still in the memtable.

	abuse := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
		b = append(b, 0xEE, 0xEE, 0xEE, 0xEE)
		b[len(b)-1] = 0xDD
	}
	check := func(when string) {
		t.Helper()
		for k, v := range want {
			got, err := s.Get(k)
			if err != nil {
				t.Fatalf("%s: Get %s: %v", when, k, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("%s: Get %s returned bytes an earlier caller wrote", when, k)
			}
			abuse(got)
		}
		page, more, err := s.Scan("", "", 0)
		if err != nil || more || len(page) != len(want) {
			t.Fatalf("%s: Scan: %d entries, more=%v, %v", when, len(page), more, err)
		}
		for _, e := range page {
			if !bytes.Equal(e.Value, want[e.Key]) {
				t.Fatalf("%s: Scan entry %s carries bytes an earlier caller wrote", when, e.Key)
			}
			abuse(e.Value)
		}
	}
	check("first read (cache miss)")
	check("second read (cache hit)")
	s.Chunks().Cache().DrainAll()
	check("after DrainAll (miss again)")
	check("hit after the second miss")
	if st := s.Chunks().Cache().Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("test did not cross both paths: %+v", st)
	}
}
