package lsm_test

// Leveled-compaction tests over the reference mocks: the CobbleDB-style
// composed per-level model (model.RefLevels) runs in lockstep with the
// production tree through flushes, L0 promotions, deep-level pushes, and
// full compactions, comparing both the flattened key-value mapping and the
// per-level composition after every step. The manifest-generation edge
// cases (empty output, wraparound guard, newest-generation-first reads,
// v1-format fallback) live here too.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"shardstore/internal/chunk"
	"shardstore/internal/compact"
	"shardstore/internal/dep"
	"shardstore/internal/faults"
	"shardstore/internal/lsm"
	"shardstore/internal/model"
)

// levelSeqs returns the input seqs for a leveled plan over the tree's
// current view: every run at the given levels.
func levelSeqs(tree *lsm.Tree, levels ...int) []uint64 {
	want := make(map[int]bool, len(levels))
	for _, l := range levels {
		want[l] = true
	}
	var out []uint64
	for _, r := range tree.LevelInfo() {
		if want[r.Level] {
			out = append(out, r.Seq)
		}
	}
	return out
}

// treeLevelKeys reads the keys (live or tombstoned) the tree holds at a
// level, by decoding its run chunks straight from the mock chunk store.
func treeLevelKeys(t *testing.T, tree *lsm.Tree, cs *model.RefChunkStore, lv int) []string {
	t.Helper()
	infos := tree.LevelInfo()
	locs := tree.RunLocs()
	if len(infos) != len(locs) {
		t.Fatalf("LevelInfo %d runs, RunLocs %d", len(infos), len(locs))
	}
	seen := make(map[string]bool)
	for i, info := range infos {
		if info.Level != lv {
			continue
		}
		payload, err := cs.Get(locs[i])
		if err != nil {
			t.Fatalf("read run %d: %v", info.Seq, err)
		}
		entries, err := lsm.DecodeRunForTest(payload)
		if err != nil {
			t.Fatalf("decode run %d: %v", info.Seq, err)
		}
		for _, e := range entries {
			seen[e.Key] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func checkLockstep(t *testing.T, step string, tree *lsm.Tree, ref *model.RefLevels, cs *model.RefChunkStore, keys []string) {
	t.Helper()
	for _, k := range keys {
		tv, terr := tree.Get(k)
		rv, rerr := ref.Get(k)
		if (terr != nil) != (rerr != nil) {
			t.Fatalf("%s: Get(%q) tree err=%v model err=%v", step, k, terr, rerr)
		}
		if terr == nil && !bytes.Equal(tv, rv) {
			t.Fatalf("%s: Get(%q) tree=%v model=%v", step, k, tv, rv)
		}
	}
	tk, err := tree.Keys()
	if err != nil {
		t.Fatalf("%s: tree keys: %v", step, err)
	}
	rk, _ := ref.Keys()
	if fmt.Sprint(tk) != fmt.Sprint(rk) {
		t.Fatalf("%s: keys tree=%v model=%v", step, tk, rk)
	}
	for lv := 0; lv <= lsm.MaxLevels; lv++ {
		got := treeLevelKeys(t, tree, cs, lv)
		want := ref.LevelKeys(lv)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: level %d keys tree=%v model=%v", step, lv, got, want)
		}
	}
}

// TestLeveledLockstepRandomOps drives the tree and the composed per-level
// reference model through identical randomized histories and requires the
// full composition — mapping and level shapes — to match after every
// structural operation.
func TestLeveledLockstepRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bugs := faults.NewSet()
			cs := model.NewRefChunkStore(bugs)
			ms := model.NewRefMetaStore()
			// MaxRuns 64: structural ops are explicit here, so the flush
			// path's own auto-compaction stays out of the way.
			tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
			if err != nil {
				t.Fatal(err)
			}
			ref := model.NewRefLevels()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]string, 12)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
			}
			for step := 0; step < 160; step++ {
				k := keys[rng.Intn(len(keys))]
				label := fmt.Sprintf("step %d", step)
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					v := []byte{byte(step), byte(rng.Intn(256))}
					if _, err := tree.Put(k, v); err != nil {
						t.Fatal(err)
					}
					_, _ = ref.Put(k, v)
				case 4:
					if _, err := tree.Delete(k); err != nil {
						t.Fatal(err)
					}
					_, _ = ref.Delete(k)
				case 5, 6:
					if _, err := tree.Flush(); err != nil {
						t.Fatal(err)
					}
					_, _ = ref.Flush()
				case 7:
					in := levelSeqs(tree, 0, 1)
					if len(in) == 0 {
						continue
					}
					res, err := tree.ApplyPlan(compact.Plan{Inputs: in, OutLevel: 1})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Applied {
						t.Fatalf("%s: L0 promotion not applied", label)
					}
					ref.PromoteL0()
				case 8:
					lv := 1 + rng.Intn(lsm.MaxLevels-1)
					in := levelSeqs(tree, lv, lv+1)
					if len(levelSeqs(tree, lv)) == 0 {
						continue
					}
					res, err := tree.ApplyPlan(compact.Plan{Inputs: in, OutLevel: lv + 1})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Applied {
						t.Fatalf("%s: L%d push not applied", label, lv)
					}
					if err := ref.Promote(lv); err != nil {
						t.Fatal(err)
					}
				case 9:
					if err := tree.Compact(); err != nil {
						t.Fatal(err)
					}
					_ = ref.Compact()
				}
				checkLockstep(t, label, tree, ref, cs, keys)
			}
		})
	}
}

// TestCompactionEmptyOutput covers the empty-level compaction edge: a merge
// whose entries cancel to nothing (tombstones over their own puts at the
// deepest level) publishes pure removal — no output run, and the next
// recovery sees the empty manifest. A leveled plan and the control-plane
// whole-tree Compact take the same path.
func TestCompactionEmptyOutput(t *testing.T) {
	for name, merge := range map[string]func(*lsm.Tree) error{
		"ApplyPlan": func(tree *lsm.Tree) error {
			res, err := tree.ApplyPlan(compact.Plan{Inputs: levelSeqs(tree, 0), OutLevel: 1})
			if err == nil && (!res.Applied || res.BytesOut != 0 || res.DroppedTombstones != 1) {
				err = fmt.Errorf("empty-output result: %+v", res)
			}
			return err
		},
		"Compact": (*lsm.Tree).Compact,
	} {
		t.Run(name, func(t *testing.T) {
			bugs := faults.NewSet()
			cs := model.NewRefChunkStore(bugs)
			ms := model.NewRefMetaStore()
			tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = tree.Put("k", []byte{1})
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			_, _ = tree.Delete("k")
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			gen := tree.ManifestGen()
			if err := merge(tree); err != nil {
				t.Fatal(err)
			}
			if tree.RunCount() != 0 || tree.ManifestGen() != gen+1 {
				t.Fatalf("after cancelling merge: %d runs, generation %d (was %d)", tree.RunCount(), tree.ManifestGen(), gen)
			}
			if _, err := tree.Get("k"); !errors.Is(err, lsm.ErrNotFound) {
				t.Fatalf("Get after cancelling merge: %v", err)
			}
			reopened, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
			if err != nil {
				t.Fatal(err)
			}
			if reopened.RunCount() != 0 || reopened.ManifestGen() != gen+1 {
				t.Fatalf("recovered %d runs at generation %d, want the published empty manifest (generation %d)",
					reopened.RunCount(), reopened.ManifestGen(), gen+1)
			}
			if keys, err := reopened.Keys(); err != nil || len(keys) != 0 {
				t.Fatalf("recovered keys: %v %v", keys, err)
			}
		})
	}
}

// TestManifestGenWraparoundGuard forces the generation counter to its guard
// value and requires the next manifest publication to refuse rather than
// wrap (a wrapped generation would recover out of order).
func TestManifestGenWraparoundGuard(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	_, _ = tree.Put("k", []byte{1})
	tree.SetManifestGenForTest(^uint64(0) - 1)
	if _, err := tree.Flush(); !errors.Is(err, lsm.ErrManifestGenExhausted) {
		t.Fatalf("flush at max generation: %v", err)
	}
}

// TestManifestGenMonotonic checks every structural operation publishes a
// strictly newer generation.
func TestManifestGenMonotonic(t *testing.T) {
	tree, _, _ := newMockTree(t, nil)
	last := tree.ManifestGen()
	for i := 0; i < 4; i++ {
		_, _ = tree.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		if g := tree.ManifestGen(); g <= last {
			t.Fatalf("flush %d: generation %d after %d", i, g, last)
		} else {
			last = g
		}
	}
	if err := tree.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := tree.ManifestGen(); g <= last {
		t.Fatalf("compact: generation %d after %d", g, last)
	}
}

// TestNewestGenerationFirstRead pins the moment both generations' chunks are
// live at once: the inputs' run chunks still decode from the chunk store
// after the swap (reclamation has not swept them), but every read goes
// through the new manifest and serves the newest data.
func TestNewestGenerationFirstRead(t *testing.T) {
	bugs := faults.NewSet()
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tree.Put("k", []byte{1})
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _ = tree.Put("k", []byte{2})
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	oldLocs := tree.RunLocs()
	res, err := tree.ApplyPlan(compact.Plan{Inputs: levelSeqs(tree, 0), OutLevel: 1})
	if err != nil || !res.Applied {
		t.Fatalf("promote: %+v %v", res, err)
	}
	// Old generation's chunks are still physically present...
	for _, loc := range oldLocs {
		payload, err := cs.Get(loc)
		if err != nil {
			t.Fatalf("old-generation chunk %v gone before reclamation: %v", loc, err)
		}
		if _, err := lsm.DecodeRunForTest(payload); err != nil {
			t.Fatalf("old-generation chunk %v: %v", loc, err)
		}
	}
	// ...yet reads serve only the new generation, newest value first.
	v, err := tree.Get("k")
	if err != nil || !bytes.Equal(v, []byte{2}) {
		t.Fatalf("read with both generations live: %v %v", v, err)
	}
	if got := tree.RunCount(); got != 1 {
		t.Fatalf("new generation runs: %d", got)
	}
}

// TestManifestV1Fallback writes a v1 flat run list (the pre-leveled format)
// and checks recovery accepts it: every run lands at level 0, generation 0,
// and the data reads back.
func TestManifestV1Fallback(t *testing.T) {
	bugs := faults.NewSet()
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tree.Put("k", []byte{7})
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	infos := tree.LevelInfo()
	locs := tree.RunLocs()
	// Hand-encode the same single run in the v1 layout: u32 count, then per
	// run a u64 seq and the locator — no marker, no generation, no levels.
	v1 := binary.BigEndian.AppendUint32(nil, 1)
	v1 = binary.BigEndian.AppendUint64(v1, infos[0].Seq)
	v1 = append(v1, chunk.EncodeLocator(locs[0])...)
	if _, err := ms.WriteRecord(v1, dep.Resolved()); err != nil {
		t.Fatal(err)
	}
	reopened, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.ManifestGen() != 0 {
		t.Fatalf("v1 manifest generation: %d", reopened.ManifestGen())
	}
	ri := reopened.LevelInfo()
	if len(ri) != 1 || ri[0].Level != 0 || ri[0].Seq != infos[0].Seq {
		t.Fatalf("v1 runs: %+v", ri)
	}
	v, err := reopened.Get("k")
	if err != nil || !bytes.Equal(v, []byte{7}) {
		t.Fatalf("read after v1 recovery: %v %v", v, err)
	}
}

// TestApplyPlanRejectsUnsafePlans checks the precedence validation: plans
// that would shadow newer data with older are refused outright.
func TestApplyPlanRejectsUnsafePlans(t *testing.T) {
	bugs := faults.NewSet()
	cs := model.NewRefChunkStore(bugs)
	ms := model.NewRefMetaStore()
	tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 64}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = tree.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	infos := tree.LevelInfo() // newest first: seqs 2, 1, 0 at L0
	// Merging the two NEWEST L0 runs while the oldest stays would let the
	// old run shadow the merged output.
	unsafe := compact.Plan{Inputs: []uint64{infos[0].Seq, infos[1].Seq}, OutLevel: 1}
	if _, err := tree.ApplyPlan(unsafe); err == nil {
		t.Fatal("plan skipping an older L0 run was accepted")
	}
	// Out-of-range output levels are refused.
	if _, err := tree.ApplyPlan(compact.Plan{Inputs: []uint64{infos[2].Seq}, OutLevel: lsm.MaxLevels + 1}); err == nil {
		t.Fatal("plan beyond MaxLevels was accepted")
	}
	// Merging the two OLDEST runs is fine; the newest keeps shadowing both.
	safe := compact.Plan{Inputs: []uint64{infos[1].Seq, infos[2].Seq}, OutLevel: 1}
	res, err := tree.ApplyPlan(safe)
	if err != nil || !res.Applied {
		t.Fatalf("safe suffix plan: %+v %v", res, err)
	}
	for i := 0; i < 3; i++ {
		v, err := tree.Get(fmt.Sprintf("k%d", i))
		if err != nil || v[0] != byte(i) {
			t.Fatalf("k%d after suffix merge: %v %v", i, v, err)
		}
	}
	// A plan naming a vanished seq is a clean CAS abort, not an error.
	res, err = tree.ApplyPlan(compact.Plan{Inputs: []uint64{9999}, OutLevel: 1})
	if err != nil || res.Applied {
		t.Fatalf("missing-input plan: %+v %v", res, err)
	}
}
