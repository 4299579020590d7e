package lsm_test

// The tree tests in this file run against the reference chunk store and
// metadata mocks — exactly the §3.2 pattern: reference models double as mock
// implementations for unit tests. The conformance harness covers the tree
// over the real chunk store.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/faults"
	"shardstore/internal/lsm"
	"shardstore/internal/model"
)

func newMockTree(t *testing.T, bugs *faults.Set) (*lsm.Tree, *model.RefChunkStore, *model.RefMetaStore) {
	t.Helper()
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 4}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return tree, cs, ms
}

func TestTreePutGetDelete(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	if _, err := tree.Put("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	v, err := tree.Get("a")
	if err != nil || v[0] != 1 {
		t.Fatalf("get: %v %v", v, err)
	}
	if _, err := tree.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Get("a"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestTreeFlushMovesMemtableToRun(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	for i := 0; i < 5; i++ {
		_, _ = tree.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if tree.MemLen() != 5 {
		t.Fatalf("memtable %d", tree.MemLen())
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	if tree.MemLen() != 0 || tree.RunCount() != 1 {
		t.Fatalf("after flush: mem=%d runs=%d", tree.MemLen(), tree.RunCount())
	}
	for i := 0; i < 5; i++ {
		v, err := tree.Get(fmt.Sprintf("k%d", i))
		if err != nil || v[0] != byte(i) {
			t.Fatalf("k%d after flush: %v %v", i, v, err)
		}
	}
}

func TestTreeNewestRunWins(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	_, _ = tree.Put("k", []byte{1})
	_, _ = tree.Flush()
	_, _ = tree.Put("k", []byte{2})
	_, _ = tree.Flush()
	v, err := tree.Get("k")
	if err != nil || v[0] != 2 {
		t.Fatalf("overwrite across runs: %v %v", v, err)
	}
}

func TestTreeTombstoneShadowsOlderRuns(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	_, _ = tree.Put("k", []byte{1})
	_, _ = tree.Flush()
	_, _ = tree.Delete("k")
	_, _ = tree.Flush()
	if _, err := tree.Get("k"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("tombstone not honored: %v", err)
	}
	keys, _, _ := tree.Keys("", "", 0)
	if len(keys) != 0 {
		t.Fatalf("keys: %v", keys)
	}
}

func TestTreeCompactMergesAndDropsTombstones(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	for i := 0; i < 4; i++ {
		_, _ = tree.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		_, _ = tree.Flush()
	}
	_, _ = tree.Delete("k0")
	_, _ = tree.Flush()
	if err := tree.Compact(); err != nil {
		t.Fatal(err)
	}
	if tree.RunCount() != 1 {
		t.Fatalf("runs after compact: %d", tree.RunCount())
	}
	if _, err := tree.Get("k0"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatal("deleted key resurrected by compaction")
	}
	for i := 1; i < 4; i++ {
		if _, err := tree.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("k%d lost in compaction: %v", i, err)
		}
	}
}

func TestTreeAutoCompactsAtMaxRuns(t *testing.T) {
	tree, _, _ := newMockTree(t, nil) // MaxRuns = 4
	for i := 0; i < 10; i++ {
		_, _ = tree.Put(fmt.Sprintf("k%d", i%3), []byte{byte(i)})
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if tree.RunCount() > 5 {
		t.Fatalf("auto-compaction did not bound runs: %d", tree.RunCount())
	}
}

func TestTreeRecoverFromMetadata(t *testing.T) {
	bugs := faults.NewSet()
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, _ := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{}, bugs)
	_, _ = tree.Put("persist", []byte("me"))
	_, _ = tree.Flush()

	tree2, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tree2.Get("persist")
	if err != nil || !bytes.Equal(v, []byte("me")) {
		t.Fatalf("recovered tree: %v %v", v, err)
	}
	if tree2.RunCount() != 1 {
		t.Fatalf("recovered runs: %d", tree2.RunCount())
	}
}

func TestTreeKeysMergesAllSources(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	_, _ = tree.Put("a", []byte{1})
	_, _ = tree.Flush()
	_, _ = tree.Put("b", []byte{2})
	_, _ = tree.Delete("a")
	keys, _, err := tree.Keys("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestRunResolverLivenessAndRelocation(t *testing.T) {
	tree, cs, _ := newMockTree(t, nil)
	_, _ = tree.Put("k", []byte{1})
	_, _ = tree.Flush()
	locs := tree.RunLocs()
	if len(locs) != 1 {
		t.Fatalf("runs: %v", locs)
	}
	r := lsm.RunResolver{Tree: tree}
	if !r.ChunkLive("run-0000000000000000", locs[0]) {
		t.Fatal("current run not live")
	}
	// Relocate: copy the run to a new mock chunk.
	payload, _ := cs.Get(locs[0])
	newLoc, _, rel, _ := cs.Put(chunk.TagIndexRun, "run", payload)
	rel()
	relocated, d, err := r.RelocateChunk("run-0000000000000000", locs[0], newLoc, dep.Resolved())
	if err != nil || !relocated || d == nil {
		t.Fatalf("relocate: %v %v", relocated, err)
	}
	if tree.RunLocs()[0] != newLoc {
		t.Fatal("run list not updated")
	}
	if r.ChunkLive("x", locs[0]) {
		t.Fatal("old locator still live")
	}
	if v, err := tree.Get("k"); err != nil || v[0] != 1 {
		t.Fatalf("after relocation: %v %v", v, err)
	}
	// Relocating an unknown locator is a no-op.
	relocated, _, err = r.RelocateChunk("x", locs[0], newLoc, dep.Resolved())
	if err != nil || relocated {
		t.Fatalf("stale relocate: %v %v", relocated, err)
	}
}

func TestBug3ShutdownSkipsMetadata(t *testing.T) {
	bugs := faults.NewSet(faults.Bug3ShutdownMetadataSkip)
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, _ := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{ResetHappened: func() bool { return true }}, bugs)
	_, _ = tree.Put("k", []byte{9})
	if _, err := tree.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Recovery sees the stale metadata: the flushed run is forgotten.
	tree2, _ := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{}, bugs)
	if _, err := tree2.Get("k"); !errors.Is(err, lsm.ErrNotFound) {
		t.Fatalf("bug3 should lose the entry: %v", err)
	}
}

func TestBug15LocatorReuseCorruptsRunCache(t *testing.T) {
	bugs := faults.NewSet(faults.Bug15RefModelLocatorReuse)
	tree, cs, _ := newMockTree(t, bugs)
	_, _ = tree.Put("x", []byte{1})
	_, _ = tree.Flush()
	cs.Reclaim() // bug: rewinds the locator counter
	_, _ = tree.Put("x", []byte{2})
	_, _ = tree.Flush() // new run reuses the first run's locator
	v, err := tree.Get("x")
	if err == nil && len(v) == 1 && v[0] == 2 {
		t.Skip("layout did not reproduce the collision")
	}
	// Either a stale value or a decode error demonstrates the model bug.
}

func TestIndexInterfaceConformance(t *testing.T) {
	// Both the production tree and the reference index implement lsm.Index,
	// which is what lets the model double as a mock (§3.2).
	var impl lsm.Index
	tree, _, _ := newMockTree(t, nil)
	impl = tree
	if _, err := impl.Put("k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	impl = model.NewRefIndex()
	if _, err := impl.Put("k", []byte{1}); err != nil {
		t.Fatal(err)
	}
}
