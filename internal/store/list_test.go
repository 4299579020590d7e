package store

import (
	"fmt"
	"runtime"
	"testing"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
)

// TestListPages walks the listing in pages of 1, 2 and 7 while, between
// pages, the index flushes and compacts, a key the cursor has not reached is
// deleted and a key it has passed is rewritten. Every key that stays live
// appears exactly once, in ascending order, and a key deleted before the
// cursor reached it does not appear.
func TestListPages(t *testing.T) {
	for _, limit := range []int{1, 2, 7} {
		s, _ := mustOpen(t, testConfig(40))
		live := map[string]bool{}
		for i := 0; i < 24; i++ {
			k := fmt.Sprintf("k%02d", i)
			if _, err := s.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
			live[k] = true
			if i%6 == 5 { // spread the keys over several runs
				if _, err := s.FlushIndex(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var listed []string
		doomed := 23 // deleted from the top down, ahead of the cursor
		for cursor := ""; ; {
			page, more, err := s.List(cursor, "", limit)
			if err != nil {
				t.Fatalf("limit %d: List(%q): %v", limit, cursor, err)
			}
			if len(page) > limit || (more && len(page) == 0) {
				t.Fatalf("limit %d: List(%q) = %v, more %v", limit, cursor, page, more)
			}
			listed = append(listed, page...)
			if !more {
				break
			}
			cursor = page[len(page)-1] + "\x00"
			if _, err := s.FlushIndex(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompactStep(); err != nil {
				t.Fatal(err)
			}
			if victim := fmt.Sprintf("k%02d", doomed); victim >= cursor {
				if _, err := s.Delete(victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
				doomed--
			}
			if _, err := s.Put(page[0], []byte("rewritten")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < len(listed); i++ {
			if listed[i-1] >= listed[i] {
				t.Fatalf("limit %d: listing not strictly ascending at %d: %v", limit, i, listed)
			}
		}
		for _, k := range listed {
			if !live[k] {
				t.Fatalf("limit %d: listed %q, deleted before the cursor reached it", limit, k)
			}
		}
		if len(listed) != len(live) {
			t.Fatalf("limit %d: listed %d keys, %d stayed live: %v", limit, len(listed), len(live), listed)
		}
	}
}

// TestOpenAndListAreScaleFree: reopening a store and listing one page cost
// the same at 16 000 keys as at 1 000, because neither walks the key set. The
// geometry is the benchmark node's with 256 extents: at 64 extents a 64 B
// value's page-aligned chunk fills the disk near 14 000 keys.
func TestOpenAndListAreScaleFree(t *testing.T) {
	type cost struct{ openBytes, pageBytes, pageReads uint64 }
	measure := func(n int) cost {
		cfg := Config{
			Seed:               1,
			Disk:               disk.Config{PageSize: 4096, PagesPerExtent: 256, ExtentCount: 256},
			MaxMemEntries:      128,
			AutoFlushThreshold: 64,
			Bugs:               faults.NewSet(),
		}
		s, d := mustOpen(t, cfg)
		val := make([]byte, 64)
		for i := 0; i < n; i++ {
			if _, err := s.Put(fmt.Sprintf("key-%06d", i), val); err != nil {
				t.Fatalf("n=%d: put %d: %v", n, i, err)
			}
		}
		if err := s.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
		var c cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(d, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		c.openBytes = after.TotalAlloc - before.TotalAlloc
		// The first page loads the index runs; the one measured is the next.
		if _, _, err := s.List("", "", 16); err != nil {
			t.Fatal(err)
		}
		reads := d.Stats().Reads
		runtime.ReadMemStats(&before)
		page, more, err := s.List("key-000100", "", 16)
		runtime.ReadMemStats(&after)
		if err != nil || len(page) != 16 || page[0] != "key-000100" || !more {
			t.Fatalf("n=%d: page %v more %v: %v", n, page, more, err)
		}
		c.pageBytes = after.TotalAlloc - before.TotalAlloc
		c.pageReads = d.Stats().Reads - reads
		t.Logf("%5d keys: reopen %d B, 16-key page %d B and %d device reads", n, c.openBytes, c.pageBytes, c.pageReads)
		return c
	}
	small, large := measure(1000), measure(16000)
	if 2*large.openBytes > 3*small.openBytes {
		t.Errorf("reopen allocates %d B at 16 000 keys, %d B at 1 000: more than 1.5x, so Open walks the keys", large.openBytes, small.openBytes)
	}
	if 2*large.pageBytes > 3*small.pageBytes {
		t.Errorf("a 16-key page allocates %d B at 16 000 keys, %d B at 1 000: more than 1.5x, so List copies the key set", large.pageBytes, small.pageBytes)
	}
	if large.pageReads > small.pageReads {
		t.Errorf("a 16-key page reads the device %d times at 16 000 keys, %d at 1 000", large.pageReads, small.pageReads)
	}
}
