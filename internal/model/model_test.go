package model

import (
	"bytes"
	"errors"
	"testing"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/lsm"
)

// --- RefIndex ---

func TestRefIndexBasics(t *testing.T) {
	r := NewRefIndex()
	if _, err := r.Get("missing"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	d, err := r.Put("k", []byte{1})
	if err != nil || !d.IsPersistent() {
		t.Fatal("model puts are immediately persistent")
	}
	v, err := r.Get("k")
	if err != nil || v[0] != 1 {
		t.Fatalf("get: %v %v", v, err)
	}
	if _, err := r.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("k"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatal("delete did not remove")
	}
}

func TestRefIndexBackgroundOpsAreNoOps(t *testing.T) {
	r := NewRefIndex()
	_, _ = r.Put("k", []byte{7})
	if _, err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get("k")
	if err != nil || v[0] != 7 {
		t.Fatal("background ops changed the mapping")
	}
}

func TestRefIndexKeysSorted(t *testing.T) {
	r := NewRefIndex()
	for _, k := range []string{"c", "a", "b"} {
		_, _ = r.Put(k, []byte(k))
	}
	keys, _ := r.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestRefIndexCloneIsDeep(t *testing.T) {
	r := NewRefIndex()
	_, _ = r.Put("k", []byte{1})
	c := r.Clone()
	_, _ = c.Put("k", []byte{2})
	v, _ := r.Get("k")
	if v[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestRefIndexValueIsolation(t *testing.T) {
	r := NewRefIndex()
	buf := []byte{1}
	_, _ = r.Put("k", buf)
	buf[0] = 9
	v, _ := r.Get("k")
	if v[0] != 1 {
		t.Fatal("model aliases caller buffer")
	}
	v[0] = 8
	v2, _ := r.Get("k")
	if v2[0] != 1 {
		t.Fatal("model exposes internal buffer")
	}
}

// --- RefChunkStore ---

func TestRefChunkStoreUniqueLocators(t *testing.T) {
	cs := NewRefChunkStore(nil)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		loc, _, rel, err := cs.Put(0, "k", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		rel()
		if seen[loc.String()] {
			t.Fatalf("locator reused: %v", loc)
		}
		seen[loc.String()] = true
		if i%5 == 0 {
			cs.Reclaim()
		}
	}
}

func TestRefChunkStoreBug15ReusesLocators(t *testing.T) {
	bugs := faults.NewSet(faults.Bug15RefModelLocatorReuse)
	cs := NewRefChunkStore(bugs)
	loc1, _, rel, _ := cs.Put(0, "k", []byte{1})
	rel()
	cs.Reclaim() // rewinds
	loc2, _, rel2, _ := cs.Put(0, "k", []byte{2})
	rel2()
	if loc1 != loc2 {
		t.Fatalf("bug15 should reuse locators: %v vs %v", loc1, loc2)
	}
	// The collision clobbers the first chunk.
	v, err := cs.Get(loc1)
	if err != nil || v[0] != 2 {
		t.Fatalf("clobbered chunk: %v %v", v, err)
	}
}

func TestRefChunkStoreGetUnknown(t *testing.T) {
	cs := NewRefChunkStore(nil)
	if _, err := cs.Get(chunk.Locator{Extent: 1, Offset: 2, Length: 3}); !errors.Is(err, ErrNoChunk) {
		t.Fatalf("unknown locator: %v", err)
	}
}

// --- RefStore (crash-extended model) ---

func mkDep(t *testing.T) (*dep.Scheduler, func() *dep.Dependency) {
	t.Helper()
	d, _ := disk.New(disk.DefaultConfig())
	s := dep.NewScheduler(d, dep.Options{})
	i := 0
	return s, func() *dep.Dependency {
		i++
		return s.Write("w", 1, i*8, []byte{byte(i)})
	}
}

func TestRefStoreSequentialExpectations(t *testing.T) {
	s, w := mkDep(t)
	_ = s
	r := NewRefStore(nil)
	r.ApplyPut("k", []byte{1}, w(), false)
	if err := r.CheckRead("k", []byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckRead("k", []byte{2}, nil); err == nil {
		t.Fatal("wrong value accepted")
	}
	if err := r.CheckRead("k", nil, nil); err == nil {
		t.Fatal("absence accepted while value expected")
	}
	r.ApplyDelete("k", w(), false)
	if err := r.CheckRead("k", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReadKeepsStoreError: a persistent read failure is a violation
// that wraps the store's error, so the report names what the store saw.
func TestCheckReadKeepsStoreError(t *testing.T) {
	_, w := mkDep(t)
	r := NewRefStore(nil)
	r.ApplyPut("k", []byte{1}, w(), false)
	storeErr := errors.New("chunk: truncated frame")
	err := r.CheckRead("k", nil, storeErr)
	if !errors.Is(err, storeErr) {
		t.Fatalf("violation %v does not wrap the store's error", err)
	}
}

func TestRefStoreEmptyValueDistinctFromAbsent(t *testing.T) {
	_, w := mkDep(t)
	r := NewRefStore(nil)
	r.ApplyPut("k", []byte{}, w(), false)
	if err := r.CheckRead("k", []byte{}, nil); err != nil {
		t.Fatalf("empty value rejected: %v", err)
	}
	if err := r.CheckRead("k", nil, nil); err == nil {
		t.Fatal("absence accepted for empty value")
	}
}

func TestRefStoreMaybeMutations(t *testing.T) {
	_, w := mkDep(t)
	r := NewRefStore(nil)
	r.MarkFailed()
	r.ApplyPut("k", []byte{1}, w(), false)
	r.ApplyPut("k", []byte{2}, nil, true) // op errored: may or may not apply
	if err := r.CheckRead("k", []byte{1}, nil); err != nil {
		t.Fatalf("pre-maybe value rejected: %v", err)
	}
	if err := r.CheckRead("k", []byte{2}, nil); err != nil {
		t.Fatalf("maybe value rejected: %v", err)
	}
	if err := r.CheckRead("k", []byte{3}, nil); err == nil {
		t.Fatal("phantom value accepted")
	}
	// A read observation collapses the ambiguity.
	r.ResolveMaybe("k", []byte{2})
	if err := r.CheckRead("k", []byte{1}, nil); err == nil {
		t.Fatal("stale value accepted after observation")
	}
}

func TestRefStoreCrashAllowedSet(t *testing.T) {
	s, _ := mkDep(t)
	r := NewRefStore(nil)
	d1 := s.Write("a", 1, 0, []byte{1})
	r.ApplyPut("k", []byte{1}, d1, false)
	_ = s.Pump() // d1 persistent
	d2 := s.Write("b", 2, 0, []byte{2})
	r.ApplyPut("k", []byte{2}, d2, false) // not persistent

	// Crash: the implementation may hold 1 (persistent) or 2 (in flight).
	for _, v := range [][]byte{{1}, {2}} {
		clone := r.Clone()
		err := clone.AdoptDirtyReboot(func(string) ([]byte, error) { return v, nil })
		if err != nil {
			t.Fatalf("value %v rejected: %v", v, err)
		}
	}
	// Absence is not allowed: put 1 was persistent.
	clone := r.Clone()
	if err := clone.AdoptDirtyReboot(func(string) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("loss of persistent put accepted")
	}
	// Phantom values are never allowed.
	clone = r.Clone()
	if err := clone.AdoptDirtyReboot(func(string) ([]byte, error) { return []byte{9}, nil }); err == nil {
		t.Fatal("phantom value accepted after crash")
	}
}

func TestRefStoreCrashDeleteNotPersistent(t *testing.T) {
	s, _ := mkDep(t)
	r := NewRefStore(nil)
	d1 := s.Write("a", 1, 0, []byte{1})
	r.ApplyPut("k", []byte{1}, d1, false)
	_ = s.Pump()
	d2 := s.Write("b", 2, 0, []byte{2})
	r.ApplyDelete("k", d2, false) // in-flight delete
	// Both "still there" and "gone" are allowed.
	for _, v := range [][]byte{{1}, nil} {
		clone := r.Clone()
		if err := clone.AdoptDirtyReboot(func(string) ([]byte, error) { return v, nil }); err != nil {
			t.Fatalf("value %v rejected: %v", v, err)
		}
	}
}

func TestRefStoreForwardProgress(t *testing.T) {
	s, _ := mkDep(t)
	r := NewRefStore(nil)
	d1 := s.Write("a", 1, 0, []byte{1})
	r.ApplyPut("k", []byte{1}, d1, false)
	if err := r.CheckCleanShutdown(); err == nil {
		t.Fatal("forward progress must fail while pending")
	}
	_ = s.Pump()
	if err := r.CheckCleanShutdown(); err != nil {
		t.Fatalf("forward progress after pump: %v", err)
	}
	// The state is promoted to the durable base.
	if err := r.CheckRead("k", []byte{1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefStoreAdoptionRebasesState(t *testing.T) {
	s, _ := mkDep(t)
	r := NewRefStore(nil)
	d1 := s.Write("a", 1, 0, []byte{1})
	r.ApplyPut("k", []byte{1}, d1, false)
	_ = s.Pump()
	if err := r.AdoptDirtyReboot(func(string) ([]byte, error) { return []byte{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if r.PendingMutations() != 0 {
		t.Fatal("log not cleared by adoption")
	}
	if err := r.CheckRead("k", []byte{1}, nil); err != nil {
		t.Fatal("adopted base lost")
	}
}

func TestRefStoreBug9SpuriousFailure(t *testing.T) {
	bugs := faults.NewSet(faults.Bug9RefModelCrashReclaim)
	s, _ := mkDep(t)
	r := NewRefStore(bugs)
	d1 := s.Write("a", 1, 0, []byte{1})
	r.ApplyPut("k", []byte{1}, d1, false)
	_ = s.Pump()
	d2 := s.Write("b", 2, 0, []byte{2})
	r.ApplyPut("k", []byte{2}, d2, false) // in flight
	r.MarkReclaim()
	// Implementation legitimately recovered to the persistent value {1};
	// the buggy model insists on the latest acknowledged value {2}.
	err := r.AdoptDirtyReboot(func(string) ([]byte, error) { return []byte{1}, nil })
	if err == nil {
		t.Fatal("bug9 model should spuriously reject the legal state")
	}
}

func TestRefStoreExpectedNeverEmpty(t *testing.T) {
	_, w := mkDep(t)
	r := NewRefStore(nil)
	if got := r.Expected("never-seen"); len(got) != 1 || got[0] != nil {
		t.Fatalf("unknown key expected-set: %v", got)
	}
	r.ApplyPut("k", []byte{1}, w(), false)
	r.ApplyPut("k", []byte{2}, nil, true)
	if got := r.Expected("k"); len(got) == 0 {
		t.Fatal("empty expected set")
	}
}

func TestRefMetaStore(t *testing.T) {
	ms := NewRefMetaStore()
	if v, _ := ms.ReadLatest(); v != nil {
		t.Fatal("fresh meta store non-empty")
	}
	d, err := ms.WriteRecord([]byte("abc"))
	if err != nil || !d.IsPersistent() {
		t.Fatal("mock meta writes are immediately persistent")
	}
	v, _ := ms.ReadLatest()
	if !bytes.Equal(v, []byte("abc")) {
		t.Fatalf("latest: %q", v)
	}
	if !ms.LastDep().IsPersistent() {
		t.Fatal("LastDep not persistent")
	}
}
