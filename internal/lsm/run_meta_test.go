package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
)

// --- run serialization (§7 robustness) ---

func TestRunEncodeDecodeRoundTrip(t *testing.T) {
	entries := []Entry{
		{Key: "a", Value: []byte{1, 2}},
		{Key: "b", Tombstone: true},
		{Key: "c", Value: []byte{}},
	}
	buf := encodeRun(entries)
	got, err := decodeRun(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Key != "a" || !got[1].Tombstone || got[2].Key != "c" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRunDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeRunForTest(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDecodeRejectsUnsorted(t *testing.T) {
	for name, entries := range map[string][]Entry{
		"descending": {{Key: "b", Value: []byte{1}}, {Key: "a", Value: []byte{2}}},
		"duplicate":  {{Key: "a", Value: []byte{1}}, {Key: "a", Value: []byte{2}}, {Key: "b", Value: []byte{3}}},
	} {
		if _, err := decodeRun(encodeRun(entries)); !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("%s run: got %v, want ErrCorruptRun", name, err)
		}
	}
}

// drainMerge collects a merge from start, eliding tombstones on request —
// the two ways the tree consumes the iterator.
func drainMerge(srcs [][]Entry, start string, dropTomb bool) []Entry {
	var out []Entry
	for it := newMergeIter(srcs, start); ; {
		e, ok := it.next()
		if !ok {
			return out
		}
		if !(e.Tombstone && dropTomb) {
			out = append(out, e)
		}
	}
}

func TestMergeIterNewestWins(t *testing.T) {
	newer := []Entry{{Key: "k", Value: []byte{2}}, {Key: "x", Tombstone: true}}
	older := []Entry{{Key: "k", Value: []byte{1}}, {Key: "x", Value: []byte{9}}, {Key: "y", Value: []byte{3}}}
	merged := drainMerge([][]Entry{newer, older}, "", true)
	if len(merged) != 2 {
		t.Fatalf("merged: %+v", merged)
	}
	if merged[0].Key != "k" || merged[0].Value[0] != 2 {
		t.Fatalf("newest-wins violated: %+v", merged[0])
	}
	if merged[1].Key != "y" {
		t.Fatalf("expected y to survive: %+v", merged)
	}
	withTombs := drainMerge([][]Entry{newer, older}, "", false)
	if len(withTombs) != 3 || !withTombs[1].Tombstone {
		t.Fatalf("tombstones dropped when they should be kept: %+v", withTombs)
	}
}

// TestMergeIterMatchesMapOracle is the iterator's property: for random
// newest-first runs and a random seek key, its output equals the obvious
// specification — fold the runs oldest to newest into a map, sort the keys,
// keep those at or after start — with and without tombstone elision.
func TestMergeIterMatchesMapOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
		srcs := make([][]Entry, rng.Intn(7))
		for i := range srcs {
			inRun := make(map[string]Entry)
			for n := rng.Intn(25); n > 0; n-- {
				k := key()
				inRun[k] = Entry{Key: k, Value: []byte{byte(i), byte(n)}, Tombstone: rng.Intn(4) == 0}
			}
			for _, e := range inRun {
				srcs[i] = append(srcs[i], e)
			}
			sort.Slice(srcs[i], func(a, b int) bool { return srcs[i][a].Key < srcs[i][b].Key })
		}
		start := ""
		if rng.Intn(4) > 0 {
			start = key()
		}
		for _, dropTomb := range []bool{false, true} {
			latest := make(map[string]Entry)
			for i := len(srcs) - 1; i >= 0; i-- {
				for _, e := range srcs[i] {
					latest[e.Key] = e
				}
			}
			var want []Entry
			for k, e := range latest {
				if k >= start && !(e.Tombstone && dropTomb) {
					want = append(want, e)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			if got := drainMerge(srcs, start, dropTomb); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d start %q dropTomb %v:\n got %v\nwant %v", seed, start, dropTomb, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchRun(t *testing.T) {
	entries := []Entry{{Key: "a"}, {Key: "c"}, {Key: "e"}}
	if _, ok := searchRun(entries, "c"); !ok {
		t.Fatal("missing present key")
	}
	if _, ok := searchRun(entries, "b"); ok {
		t.Fatal("found absent key")
	}
	if _, ok := searchRun(nil, "a"); ok {
		t.Fatal("found in empty run")
	}
}

// --- the real metadata store over a disk ---

func TestExtentMetaStoreRoundTrip(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	sched := dep.NewScheduler(d, nil)
	ms, err := NewExtentMetaStore(sched, 1, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ms.ReadLatest(); got != nil {
		t.Fatal("fresh store has a record")
	}
	dep1, err := ms.WriteRecord([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Pump(); err != nil {
		t.Fatal(err)
	}
	if !dep1.IsPersistent() {
		t.Fatal("record dep not persistent")
	}
	got, err := ms.ReadLatest()
	if err != nil || string(got) != "one" {
		t.Fatalf("latest: %q %v", got, err)
	}
}

func TestExtentMetaStoreNewestGenerationWins(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	sched := dep.NewScheduler(d, nil)
	ms, _ := NewExtentMetaStore(sched, 1, 64, nil)
	for i := 0; i < 12; i++ { // cycles through the slots
		if _, err := ms.WriteRecord([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := sched.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ms.ReadLatest()
	if string(got) != string(byte('a'+11)) {
		t.Fatalf("latest after cycling: %q", got)
	}
	// A new store on the same disk adopts the generation cursor.
	ms2, _ := NewExtentMetaStore(dep.NewScheduler(d, nil), 1, 64, nil)
	got2, _ := ms2.ReadLatest()
	if string(got2) != string(got) {
		t.Fatalf("recovered latest: %q", got2)
	}
}

func TestExtentMetaStoreRecordTooLarge(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	sched := dep.NewScheduler(d, nil)
	ms, _ := NewExtentMetaStore(sched, 1, 64, nil)
	if _, err := ms.WriteRecord(make([]byte, 500)); !errors.Is(err, ErrMetaTooLarge) {
		t.Fatalf("oversized record: %v", err)
	}
}

func TestExtentMetaStoreTornWriteKeepsPrevious(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	sched := dep.NewScheduler(d, nil)
	ms, _ := NewExtentMetaStore(sched, 1, 200, nil) // records span multiple pages
	_, _ = ms.WriteRecord(bytes.Repeat([]byte{1}, 200))
	_ = sched.Pump()
	_, _ = ms.WriteRecord(bytes.Repeat([]byte{2}, 200))
	sched.Step() // issue to cache without syncing
	// Crash keeps only the first page of the new record: torn.
	d.CrashKeep(func(a disk.PageAddr) bool { return a.Page%3 == 0 })
	got, err := ms.ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got[0] != 1 {
		t.Fatalf("torn record should fall back to the previous one: %v", got)
	}
}
