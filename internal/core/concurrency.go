package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/linearize"
	"shardstore/internal/lsm"
	"shardstore/internal/model"
	"shardstore/internal/shuttle"
	"shardstore/internal/store"
	"shardstore/internal/vsync"
)

// This file contains the §6 stateless-model-checking harnesses: hand-written
// concurrent scenarios (the paper's Fig 4 and the harnesses for bugs
// #11–#16), each expressed as a deterministic body for shuttle.Explore.
// Assertions are panics; shuttle reports panics and deadlocks with a replay
// trace.

// concStoreConfig builds a small store for concurrency harnesses.
func concStoreConfig(bugs *faults.Set) store.Config {
	return store.Config{
		Disk:          disk.Config{PageSize: 128, PagesPerExtent: 8, ExtentCount: 24},
		Seed:          7,
		Bugs:          bugs,
		StagingTokens: 64,
	}
}

func mustStore(cfg store.Config) *store.Store {
	s, _, err := store.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: store setup: %v", err))
	}
	return s
}

// cleanReopen shuts the store down cleanly and recovers it from disk,
// panicking if either step fails with a non-benign error. Recovery is checked
// with one full listing: Open reads no run, so a metadata record naming a
// run chunk that is gone surfaces only when a walk loads every run.
func cleanReopen(st *store.Store) *store.Store {
	if err := st.CleanShutdown(); err != nil {
		if benignResourceErr(err) {
			// Disk full during shutdown flush: recover from whatever is
			// durable; the keys in these harnesses were flushed earlier.
			_ = err
		} else {
			panic(fmt.Sprintf("harness: clean shutdown: %v", err))
		}
	}
	ns, err := store.Open(st.Disk(), st.Config())
	if err == nil {
		_, _, err = ns.List("", "", 0)
	}
	if err != nil {
		panic(fmt.Sprintf("harness: recovery failed: %v", err))
	}
	return ns
}

func must(err error, what string) {
	if err != nil && !benignResourceErr(err) && !errors.Is(err, lsm.ErrNotFound) {
		panic(fmt.Sprintf("harness: %s: %v", what, err))
	}
}

// Fig4Harness is the paper's Fig 4 test: an index pre-populated with keys,
// then three concurrent threads — chunk reclamation, LSM compaction, and a
// writer that overwrites keys and immediately reads them back — with
// read-after-write consistency as the property. It catches bug #14 (the
// compaction/reclamation race that loses fresh index entries).
func Fig4Harness(bugs *faults.Set) func() {
	return func() {
		cfg := concStoreConfig(bugs)
		cfg.MaxRuns = 16 // see Bug14Harness: avoid cache-healing auto-compactions
		st := mustStore(cfg)
		// Initial state: several keys across two runs, with enough overwrite
		// garbage that reclamation has work to do.
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("k%d", i)
			must(e2(st.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 100))), "seed put")
		}
		must(e2(st.FlushIndex()), "seed flush")
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("k%d", i)
			must(e2(st.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 40))), "overwrite put")
		}
		must(e2(st.FlushIndex()), "seed flush 2")
		must(st.Pump(), "seed pump")

		t1 := vsync.Go("reclaim", func() {
			for _, ext := range st.Chunks().ReclaimCandidates() {
				_ = st.Reclaim(ext)
			}
		})
		t2 := vsync.Go("compact", func() {
			must(st.CompactIndex(), "compact")
		})
		t3 := vsync.Go("writer", func() {
			for i := 0; i < 2; i++ {
				k := fmt.Sprintf("k%d", i)
				v := bytes.Repeat([]byte{0xA0 + byte(i)}, 120)
				must(e2(st.Put(k, v)), "write")
				got, err := st.Get(k)
				if err != nil || !bytes.Equal(got, v) {
					panic(fmt.Sprintf("read-after-write violation on %s: got %d bytes, err=%v", k, len(got), err))
				}
			}
		})
		t1.Join()
		t2.Join()
		t3.Join()

		// Final sweep through a clean reboot: every key must still be
		// readable from disk state alone.
		st2 := cleanReopen(st)
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, err := st2.Get(k); err != nil {
				panic(fmt.Sprintf("key %s lost after concurrent maintenance: %v", k, err))
			}
		}
	}
}

// e2 discards a call's first result, forwarding its error (a helper so that
// multi-valued calls compose with must).
func e2[T any](v T, err error) error {
	_ = v
	return err
}

// Bug11Harness races a reader holding a stale locator against reclamation
// recycling that locator: delete a shard, reclaim its extent, and write a
// different shard whose chunk lands at the same physical locator. The
// reader's Get must return the original value or not-found — never another
// shard's bytes.
func Bug11Harness(bugs *faults.Set) func() {
	return func() {
		st := mustStore(concStoreConfig(bugs))
		v1 := bytes.Repeat([]byte{0x11}, 60)
		must(e2(st.Put("victimx", v1)), "seed victim")
		// Fill the victim's extent and roll the append target past it so
		// reclamation is willing to take it.
		victimExt := disk.ExtentID(st.Chunks().ActiveExtent())
		for i := 0; i < 8 && disk.ExtentID(st.Chunks().ActiveExtent()) == victimExt; i++ {
			must(e2(st.Put(fmt.Sprintf("fill%03d", i), bytes.Repeat([]byte{0xEE}, 200))), "seed fill")
		}
		must(e2(st.FlushIndex()), "seed flush")
		must(st.Pump(), "seed pump")

		reader := vsync.Go("reader", func() {
			got, err := st.Get("victimx")
			switch {
			case err == nil && !bytes.Equal(got, v1):
				panic(fmt.Sprintf("stale locator returned wrong data: %d bytes %x...", len(got), got[:minInt(8, len(got))]))
			case err != nil && !errors.Is(err, store.ErrNotFound) && !benignResourceErr(err):
				// The validated implementation turns a stale locator into a
				// retry through the index, which resolves to the tombstone;
				// surfacing a raw IO error means the revalidation is missing.
				panic(fmt.Sprintf("stale locator surfaced an IO error instead of revalidating: %v", err))
			}
		})
		mutator := vsync.Go("mutator", func() {
			must(e2(st.Delete("victimx")), "delete")
			must(e2(st.FlushIndex()), "flush tombstone")
			must(st.Pump(), "pump tombstone")
			if err := st.Reclaim(victimExt); err != nil {
				return // busy: the race window did not open this schedule
			}
			// Keep writing until a new chunk claims the victim's old locator
			// (offset 0 of the recycled extent).
			for i := 0; i < 12 && st.Extents().Pointer(victimExt) == 0; i++ {
				must(e2(st.Put(fmt.Sprintf("squat%02d", i), bytes.Repeat([]byte{0x22}, 60))), "squat")
			}
		})
		reader.Join()
		mutator.Join()
	}
}

// Bug12Harness exercises the superblock staging token pool under pressure:
// putter threads stage pointer updates while a flusher drains them. With
// bug #12 the flusher competes for a token and the system deadlocks.
func Bug12Harness(bugs *faults.Set) func() {
	return func() {
		cfg := concStoreConfig(bugs)
		cfg.StagingTokens = 2
		st := mustStore(cfg)

		w1 := vsync.Go("put1", func() {
			must(e2(st.Put("a", []byte{1})), "put a")
		})
		w2 := vsync.Go("put2", func() {
			must(e2(st.Put("b", []byte{2})), "put b")
		})
		flusher := vsync.Go("flusher", func() {
			for i := 0; i < 3; i++ {
				must(e2(st.FlushSuperblock()), "flush superblock")
				vsync.Yield()
			}
		})
		w1.Join()
		w2.Join()
		flusher.Join()
	}
}

// Bug13Harness races the control-plane listing against shard removal. The
// property: a shard that exists for the whole harness ("stable") must appear
// in every listing.
func Bug13Harness(bugs *faults.Set) func() {
	return func() {
		st := mustStore(concStoreConfig(bugs))
		must(e2(st.Put("a-doomed", []byte{1})), "seed")
		must(e2(st.Put("b-doomed", []byte{2})), "seed")
		must(e2(st.Put("z-stable", []byte{3})), "seed")

		lister := vsync.Go("lister", func() {
			ids, _, err := st.List("", "", 0)
			must(err, "list")
			seen := false
			for _, id := range ids {
				if id == "z-stable" {
					seen = true
				}
			}
			if !seen {
				panic(fmt.Sprintf("listing missed a shard that was never removed: %v", ids))
			}
		})
		remover := vsync.Go("remover", func() {
			must(e2(st.Delete("a-doomed")), "delete a")
			must(e2(st.Delete("b-doomed")), "delete b")
		})
		lister.Join()
		remover.Join()
	}
}

// Bug14Harness is the paper's §6 worked example in its sharpest form: a
// compaction whose freshly written run chunk must stay pinned until the
// metadata references it, racing a writer (whose puts fill the active
// extent, moving the append target) and an eager reclaimer.
func Bug14Harness(bugs *faults.Set) func() {
	return func() {
		cfg := concStoreConfig(bugs)
		// A high run limit keeps the shutdown path from auto-compacting:
		// an auto-compaction would read the dropped run's entries out of
		// the in-memory run cache and re-write them, healing the dangling
		// metadata reference before recovery could observe it.
		cfg.MaxRuns = 16
		st := mustStore(cfg)
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", i)
			must(e2(st.Put(k, bytes.Repeat([]byte{byte(i + 1)}, 60))), "seed put")
			must(e2(st.FlushIndex()), "seed flush")
		}
		must(st.Pump(), "seed pump")

		compactor := vsync.Go("compact", func() {
			must(st.CompactIndex(), "compact")
		})
		filler := vsync.Go("filler", func() {
			// Write enough to roll the active extent past whichever extent
			// holds the compactor's new run chunk, making it reclaimable.
			for i := 0; i < 8; i++ {
				must(e2(st.Put(fmt.Sprintf("fill%d", i), bytes.Repeat([]byte{0xF0 + byte(i)}, 200))), "fill")
			}
		})
		reclaimer := vsync.Go("reclaim", func() {
			// Multiple passes with fresh candidate lists: the extent holding
			// the compactor's new run only becomes a candidate after the
			// filler rolls the append target past it.
			for i := 0; i < 4; i++ {
				for _, ext := range st.Chunks().ReclaimCandidates() {
					_ = st.Reclaim(ext)
					vsync.Yield()
				}
				vsync.Yield()
			}
		})
		compactor.Join()
		filler.Join()
		reclaimer.Join()

		// Verify through a clean reboot: the in-memory run cache could mask a
		// dropped run chunk, but recovery reads the metadata and runs from
		// disk.
		st2 := cleanReopen(st)
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, err := st2.Get(k); err != nil {
				panic(fmt.Sprintf("index entries lost by compaction/reclamation race: %s: %v", k, err))
			}
		}
	}
}

// Bug15Harness exercises the LSM tree over the reference chunk store (the
// mock, as in Fig 4: "the test mocks out the persistent chunk storage") with
// a reclaim between flushes. Locator uniqueness is the property other code
// assumes: with bug #15 the mock re-issues locators and the tree's run cache
// serves stale entries.
func Bug15Harness(bugs *faults.Set) func() {
	return func() {
		cs := model.NewRefChunkStore(bugs)
		ms := model.NewRefMetaStore()
		tree, err := lsm.NewTree(cs, ms, model.ResolvedFutures{}, lsm.Config{MaxRuns: 8}, bugs)
		must(err, "tree setup")

		writer := vsync.Go("writer", func() {
			must(e2(tree.Put("x", []byte{1})), "put x1")
			must(e2(tree.Flush()), "flush 1")
			must(e2(tree.Put("x", []byte{2})), "put x2")
			must(e2(tree.Flush()), "flush 2")
			must(tree.Compact(), "compact")
		})
		gc := vsync.Go("reclaim", func() {
			cs.Reclaim()
			vsync.Yield()
			cs.Reclaim()
		})
		writer.Join()
		gc.Join()

		must(e2(tree.Put("y", []byte{9})), "put y")
		must(e2(tree.Flush()), "flush 3")
		got, err := tree.Get("x")
		if err != nil || len(got) != 1 || got[0] != 2 {
			panic(fmt.Sprintf("locator reuse corrupted the index: x = %v, %v", got, err))
		}
		goty, err := tree.Get("y")
		if err != nil || len(goty) != 1 || goty[0] != 9 {
			panic(fmt.Sprintf("locator reuse corrupted the index: y = %v, %v", goty, err))
		}
	}
}

// Bug16Harness races batch operations: DeleteBatch("x") against
// PutBatch("a"). The created shard sorts before the removed one, shifting
// listing positions; positional deletion then removes an innocent shard.
func Bug16Harness(bugs *faults.Set) func() {
	return func() {
		st := mustStore(concStoreConfig(bugs))
		must(e2(st.Put("m-innocent", []byte{1})), "seed m")
		must(e2(st.Put("x-target", []byte{2})), "seed x")

		remover := vsync.Go("batch-delete", func() {
			must(st.DeleteBatch([]string{"x-target"})[0], "batch delete")
		})
		creator := vsync.Go("batch-put", func() {
			must(st.PutBatch([]string{"a-new"}, [][]byte{{3}})[0], "batch put")
		})
		remover.Join()
		creator.Join()

		if _, err := st.Get("m-innocent"); err != nil {
			panic(fmt.Sprintf("batch delete deleted an innocent shard: %v", err))
		}
		if _, err := st.Get("x-target"); !errors.Is(err, store.ErrNotFound) {
			panic(fmt.Sprintf("batch delete missed its target: %v", err))
		}
		if _, err := st.Get("a-new"); err != nil {
			panic(fmt.Sprintf("batch put lost its shard: %v", err))
		}
	}
}

// LinearizabilityHarness runs concurrent puts/gets/deletes through the store
// and checks the recorded history against the sequential KV specification —
// the §6 property in its general form.
func LinearizabilityHarness(bugs *faults.Set) func() {
	return func() {
		st := mustStore(concStoreConfig(bugs))
		must(e2(st.Put("k", []byte("v0"))), "seed")
		rec := linearize.NewRecorder()

		doPut := func(client int, val string) {
			done := rec.Begin(client, linearize.KVInput{Op: "put", Key: "k", Value: val})
			_, err := st.Put("k", []byte(val))
			done(linearize.KVOutput{Found: true, Err: err != nil})
		}
		doGet := func(client int) {
			done := rec.Begin(client, linearize.KVInput{Op: "get", Key: "k"})
			v, err := st.Get("k")
			out := linearize.KVOutput{}
			switch {
			case errors.Is(err, store.ErrNotFound):
			case err != nil:
				out.Err = true
			default:
				out.Found = true
				out.Value = string(v)
			}
			done(out)
		}
		t1 := vsync.Go("c1", func() { doPut(1, "v1"); doGet(1) })
		t2 := vsync.Go("c2", func() { doPut(2, "v2") })
		t3 := vsync.Go("c3", func() { doGet(3); doGet(3) })
		t1.Join()
		t2.Join()
		t3.Join()

		hist := rec.History()
		// Seed the model with the initial value via a synthetic op.
		seeded := append([]linearize.Operation{{
			Client: 0,
			Input:  linearize.KVInput{Op: "put", Key: "k", Value: "v0"},
			Output: linearize.KVOutput{Found: true},
			Invoke: -2, Return: -1,
		}}, hist...)
		if res := linearize.Check(linearize.KVSpec(), seeded); !res.Ok {
			panic("history not linearizable:\n" + linearize.FormatHistory(hist))
		}
	}
}

// ScanLinearizabilityHarness runs a concurrent scanner against writers while
// a flush and a full compaction churn the run set underneath — the
// ordered-map extension of the §6 property. Every scan page must be the
// ordered snapshot of *some* point in the linearization order: a torn level
// swap (pre-swap deep levels composed with post-swap L0) yields a page no
// sequential execution can produce, which the checker rejects.
func ScanLinearizabilityHarness(bugs *faults.Set) func() {
	return func() {
		st := mustStore(concStoreConfig(bugs))
		must(e2(st.Put("a", []byte("a0"))), "seed")
		must(e2(st.Put("b", []byte("b0"))), "seed")
		must(e2(st.FlushIndex()), "seed flush")
		rec := linearize.NewRecorder()

		doPut := func(client int, key, val string) {
			done := rec.Begin(client, linearize.KVInput{Op: "put", Key: key, Value: val})
			_, err := st.Put(key, []byte(val))
			done(linearize.KVOutput{Found: true, Err: err != nil})
		}
		doScan := func(client int) {
			done := rec.Begin(client, linearize.KVInput{Op: "scan"})
			entries, more, err := st.Scan("", "", 0)
			out := linearize.KVOutput{}
			if err != nil {
				out.Err = true
			} else {
				parts := make([]string, len(entries))
				for i, e := range entries {
					parts[i] = e.Key + "=" + string(e.Value)
				}
				out.Value = strings.Join(parts, "\x00")
				out.Found = true
				out.More = more
			}
			done(out)
		}

		t1 := vsync.Go("writer", func() { doPut(1, "a", "a1"); doPut(1, "c", "c1") })
		t2 := vsync.Go("churn", func() {
			must(e2(st.FlushIndex()), "flush")
			must(st.CompactIndex(), "compact")
		})
		t3 := vsync.Go("scanner", func() { doScan(3); doScan(3) })
		t1.Join()
		t2.Join()
		t3.Join()

		hist := rec.History()
		// Seed the model with the initial mapping via synthetic ops.
		seeded := append([]linearize.Operation{
			{Client: 0, Input: linearize.KVInput{Op: "put", Key: "a", Value: "a0"},
				Output: linearize.KVOutput{Found: true}, Invoke: -4, Return: -3},
			{Client: 0, Input: linearize.KVInput{Op: "put", Key: "b", Value: "b0"},
				Output: linearize.KVOutput{Found: true}, Invoke: -2, Return: -1},
		}, hist...)
		if res := linearize.Check(linearize.KVSpec(), seeded); !res.Ok {
			panic("scan history not linearizable:\n" + linearize.FormatHistory(hist))
		}
	}
}

// ConcurrencyHarnessFor returns the shuttle harness that hunts bug b.
func ConcurrencyHarnessFor(b faults.Bug) func(*faults.Set) func() {
	switch b {
	case faults.Bug11WriteFlushRace:
		return Bug11Harness
	case faults.Bug12BufferPoolDeadlock:
		return Bug12Harness
	case faults.Bug13ListRemoveRace:
		return Bug13Harness
	case faults.Bug14CompactionReclaimRace:
		return Bug14Harness
	case faults.Bug15RefModelLocatorReuse:
		return Bug15Harness
	case faults.Bug16BulkCreateRemoveRace:
		return Bug16Harness
	default:
		return nil
	}
}

// DetectConcurrent hunts a concurrency bug (Fig 5 #11–#16) with the given
// strategy and iteration budget. The clean-baseline counterpart is running
// the same harness with an empty fault set.
func DetectConcurrent(b faults.Bug, strategy shuttle.Strategy, iterations int) (DetectionResult, shuttle.Report) {
	harness := ConcurrencyHarnessFor(b)
	if harness == nil {
		return DetectionResult{Bug: b, Checker: CheckerModelCheck}, shuttle.Report{}
	}
	body := harness(faults.NewSet(b))
	rep := shuttle.Explore(shuttle.Options{Strategy: strategy, Iterations: iterations}, body)
	out := DetectionResult{Bug: b, Checker: CheckerModelCheck}
	if rep.Failed() {
		out.Detected = true
		out.CasesNeeded = rep.First().Iteration + 1
	}
	return out, rep
}
