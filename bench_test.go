package shardstore_test

// One benchmark per reproduced table/figure (see DESIGN.md's experiment
// index), plus storage-stack microbenchmarks and the soft-updates-vs-WAL
// ablation called out in DESIGN.md. Absolute numbers are simulator-scale;
// the shapes (relative costs, who wins where) are what matter.

import (
	"fmt"
	"runtime"
	"testing"

	"shardstore/internal/core"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/linearize"
	"shardstore/internal/lsm"
	"shardstore/internal/shuttle"
	"shardstore/internal/store"

	"shardstore/internal/chunk"
	"shardstore/internal/vsync"
)

// --- storage stack microbenchmarks ---

func newBenchStore(b *testing.B) *store.Store {
	b.Helper()
	cfg := store.Config{Seed: 1}
	cfg.Disk = disk.Config{PageSize: 4096, PagesPerExtent: 64, ExtentCount: 64}
	cfg.MaxMemEntries = 64
	cfg.AutoFlushThreshold = 32
	st, _, err := store.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// putWithGC stores a shard, running the garbage collection a background
// task would perform when space runs low. It returns the number of GC retry
// passes the put needed (0 = first attempt succeeded); benchmarks surface
// the total via b.ReportMetric so GC pressure shows up next to throughput
// instead of being silently folded into ns/op.
func putWithGC(b *testing.B, st *store.Store, key string, val []byte) int {
	for attempt := 0; attempt < 4; attempt++ {
		_, err := st.Put(key, val)
		if err == nil {
			return attempt
		}
		// Disk full: one bounded GC pass over the current candidates
		// (evacuations re-populate extents, so "reclaim until no candidates"
		// would carousel live data forever). Pump errors while wedged are
		// tolerated; the retry surfaces persistent failures.
		_ = st.Pump()
		for _, ext := range st.Chunks().ReclaimCandidates() {
			_ = st.Reclaim(ext)
		}
		_ = st.Pump()
	}
	b.Fatal("disk full even after GC")
	return 0
}

func BenchmarkStorePut(b *testing.B) {
	st := newBenchStore(b)
	// One-page frames; the live set (128 shards ≈ 0.5 MiB) leaves plenty of
	// GC headroom on the 16 MiB disk, and a proactive sweep keeps overwrite
	// garbage from accumulating faster than reclamation can evacuate.
	val := make([]byte, 3800)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	gcPasses := 0
	for i := 0; i < b.N; i++ {
		gcPasses += putWithGC(b, st, fmt.Sprintf("k%04d", i%128), val)
		if i%64 == 63 {
			if err := st.Pump(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(gcPasses)/float64(b.N), "gc-passes/op")
}

func BenchmarkStoreGet(b *testing.B) {
	st := newBenchStore(b)
	val := make([]byte, 4096)
	for i := 0; i < 128; i++ {
		if _, err := st.Put(fmt.Sprintf("k%04d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Pump(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(fmt.Sprintf("k%04d", i%128)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	st := newBenchStore(b)
	for i := 0; i < 200; i++ {
		_, _ = st.Put(fmt.Sprintf("k%04d", i), make([]byte, 1024))
	}
	if err := st.CleanShutdown(); err != nil {
		b.Fatal(err)
	}
	d := st.Disk()
	cfg := st.Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Open(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftUpdatesVsWAL is the DESIGN.md ablation: write amplification
// and throughput of dependency-ordered writeback (no redo log) vs a
// simulated write-ahead-log discipline that journals every payload before
// writing it home (2x the data traffic plus forced ordering).
func BenchmarkSoftUpdatesVsWAL(b *testing.B) {
	payload := make([]byte, 3800)

	b.Run("soft-updates", func(b *testing.B) {
		st := newBenchStore(b)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		gcPasses := 0
		for i := 0; i < b.N; i++ {
			gcPasses += putWithGC(b, st, fmt.Sprintf("k%04d", i%128), payload)
			if i%32 == 31 {
				if err := st.Pump(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		_ = st.Pump()
		b.ReportMetric(float64(gcPasses)/float64(b.N), "gc-passes/op")
		written := st.Disk().Stats().BytesWritten
		logical := uint64(b.N) * uint64(len(payload))
		if logical > 0 {
			b.ReportMetric(float64(written)/float64(logical), "write-amp")
		}
	})

	b.Run("wal", func(b *testing.B) {
		// A minimal WAL-style writer on the raw scheduler: each record is
		// first journaled (and synced), then written to its home location
		// (and synced): the redirect cost soft updates avoid (§2.2).
		d, err := disk.New(disk.Config{PageSize: 4096, PagesPerExtent: 64, ExtentCount: 64})
		if err != nil {
			b.Fatal(err)
		}
		sched := dep.NewScheduler(d, dep.Options{})
		journalExt, homeExt := disk.ExtentID(0), disk.ExtentID(1)
		cap := 64 * 4096
		jOff, hOff := 0, 0
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if jOff+len(payload) > cap {
				jOff = 0
			}
			if hOff+len(payload) > cap {
				hOff = 0
				homeExt = homeExt%62 + 1
			}
			j := sched.Write("journal", journalExt, jOff, payload)
			sched.Write("home", homeExt, hOff, payload, j)
			jOff += len(payload)
			hOff += len(payload)
			if err := sched.Pump(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		written := d.Stats().BytesWritten
		logical := uint64(b.N) * uint64(len(payload))
		if logical > 0 {
			b.ReportMetric(float64(written)/float64(logical), "write-amp")
		}
	})
}

// --- one benchmark per reproduced table/figure ---

// BenchmarkFig2DependencyGraph: building and walking the three-put graph.
func BenchmarkFig2DependencyGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, _, err := store.New(store.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		d1, _ := st.Put("shard-0x1", make([]byte, 40))
		d2, _ := st.Put("shard-0x2", make([]byte, 40))
		d3, _ := st.Put("shard-0x3", make([]byte, 1800))
		_, _ = st.FlushIndex()
		_, _ = st.FlushSuperblock()
		nodes, edges := dep.All(d1, d2, d3).Graph()
		if len(nodes) == 0 || len(edges) == 0 {
			b.Fatal("empty graph")
		}
		if err := st.Pump(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexConformance: Fig 3 sequences per second (ops/seq = 30), on
// one worker so per-sequence cost stays comparable across machines.
func BenchmarkIndexConformance(b *testing.B) {
	cfg := core.IndexConfig{Seed: 11, Cases: b.N, OpsPerCase: 30, Bias: core.DefaultBias(), Workers: 1}
	res := core.RunIndexConformance(cfg)
	if res.Failure != nil {
		b.Fatalf("clean index run failed: %v", res.Failure.Err)
	}
	b.ReportMetric(float64(res.Ops)/float64(b.N), "ops/seq")
}

// storeConformanceConfig is the clean full-stack conformance workload
// (crashes + reboots + fault injection enabled) the benchmarks and the
// case-cost budget share.
func storeConformanceConfig(cases, workers int) core.Config {
	return core.Config{
		Seed: 13, Cases: cases, OpsPerCase: 40, Bias: core.DefaultBias(),
		EnableCrashes: true, EnableReboots: true, EnableFailures: true,
		Workers: workers,
	}
}

// BenchmarkStoreConformance: full-stack conformance sequences per second,
// on one worker so the per-sequence cost stays comparable across machines.
// The scaling story is BenchmarkConformanceParallel.
func BenchmarkStoreConformance(b *testing.B) {
	b.ReportAllocs()
	res := core.Run(storeConformanceConfig(b.N, 1))
	if res.Failure != nil {
		b.Fatalf("clean run failed: %v", res.Failure.Err)
	}
	b.ReportMetric(float64(res.Crashes)/float64(b.N), "crashes/seq")
}

// TestConformanceCaseCostBudget keeps a conformance case cheap enough to run
// on every change: 200 cases of BenchmarkStoreConformance's configuration
// may allocate at most 350 KB each. A case measures about 315 KB; building
// a generator per op to re-seed it, instead of re-seeding one in place, adds
// 5 KB an op and lands far past the budget. Allocation counts repeat exactly
// on one worker, so this is a budget, not a timing gate.
func TestConformanceCaseCostBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget skipped under -race: the detector allocates too")
	}
	const cases, budgetKB = 200, 350
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := core.Run(storeConformanceConfig(cases, 1))
	runtime.ReadMemStats(&after)
	if res.Failure != nil {
		t.Fatalf("clean run failed: %v", res.Failure.Err)
	}
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / cases
	allocs := float64(after.Mallocs-before.Mallocs) / cases
	t.Logf("%.0f KB and %.0f allocs per case over %d cases", kb, allocs, cases)
	if kb > budgetKB {
		t.Fatalf("a conformance case allocates %.0f KB, budget %d KB", kb, budgetKB)
	}
}

// --- allocation budgets on the data path ---
//
// The three tests below run on node_4k, the geometry bench/ measures (4 KiB
// pages, 256-page extents, 4 000 B values), and gate on bytes allocated per
// op: each names the buffers the path may still build, so re-introducing a
// copy of bytes the callee already owns fails one of them. TotalAlloc deltas
// repeat to a fraction of a percent on one goroutine; no test reads a clock.

const (
	node4kPage  = 4096
	node4kValue = 4000
)

func newNode4k(t *testing.T, cacheCap int) *store.Store {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budget skipped under -race: the detector allocates too")
	}
	st, _, err := store.New(store.Config{
		Seed:               1,
		Disk:               disk.Config{PageSize: node4kPage, PagesPerExtent: 256, ExtentCount: 64},
		MaxMemEntries:      128,
		AutoFlushThreshold: 64,
		Replicas:           1,
		CacheCapacity:      cacheCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// node4kKeys are built up front so that no measured loop pays for Sprintf.
func node4kKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	return keys
}

func node4kValueFor(i int) []byte {
	v := make([]byte, node4kValue)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

// allocBytesPerOp runs fn ops times and returns the heap bytes allocated per
// call.
func allocBytesPerOp(ops int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

// TestGetAllocBudget: a Get copies the value once per ownership change. On a
// cache hit that is the copy out of the cache (one 4 KiB size class); on a
// miss it is the frame read off the device, which the caller keeps, plus the
// cache's own copy (two). Measured: hit 4 232 B, miss 8 416 B per Get; at the
// parent, which copied the payload again in chunk.getWithKey and again in
// store.readChunks, 8 328 and 16 608.
func TestGetAllocBudget(t *testing.T) {
	const shards, ops = 64, 2048
	const hitBudget, missBudget = node4kPage + 640, 2*node4kPage + 1280 // measured + 12 %
	keys := node4kKeys(shards)
	for _, tc := range []struct {
		name         string
		cacheCap     int
		budget       float64
		hits, misses uint64
	}{
		{"cache hit", 2 * shards, hitBudget, ops, 0},
		// One slot and a round-robin over 64 shards: every Get misses.
		{"cache miss", 1, missBudget, 0, ops},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newNode4k(t, tc.cacheCap)
			for i, k := range keys {
				if _, err := st.Put(k, node4kValueFor(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Pump(); err != nil {
				t.Fatal(err)
			}
			get := func(i int) {
				if v, err := st.Get(keys[i%shards]); err != nil || len(v) != node4kValue {
					t.Fatalf("Get %s: %d bytes, %v", keys[i%shards], len(v), err)
				}
			}
			for i := 0; i < shards; i++ {
				get(i) // warm the cache (or prove it cannot be warmed)
			}
			before := st.Chunks().Cache().Stats()
			got := allocBytesPerOp(ops, get)
			after := st.Chunks().Cache().Stats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			t.Logf("%s: %.0f B per Get over %d Gets (%d hits, %d misses)", tc.name, got, ops, hits, misses)
			if hits != tc.hits || misses != tc.misses {
				t.Fatalf("%s leg took the other path: %d hits, %d misses", tc.name, hits, misses)
			}
			if got > tc.budget {
				t.Fatalf("a %s Get allocates %.0f B, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}

// TestDurablePutAllocBudget: a lone Put + WaitDurable, no maintenance tick.
// The value is copied into its page-padded frame, which the scheduler owns
// until it is durable and lends to the device, and the device copies it into
// its page image; the rest is the commit's own index run, records and
// dependency graph. Measured: 42.6 KB per durable put; at the parent, whose
// writeRunLocked grew a second buffer per issued run by doubling, 59.6 KB.
func TestDurablePutAllocBudget(t *testing.T) {
	const shards, ops = 16, 1024
	const budgetKB = 48 // measured + 13 %
	st := newNode4k(t, 32)
	keys := node4kKeys(shards)
	val := node4kValueFor(7)
	put := func(i int) {
		d, err := st.Put(keys[i%shards], val)
		if err == nil {
			err = st.WaitDurable(d)
		}
		if err != nil {
			t.Fatalf("durable put %d: %v", i, err)
		}
	}
	for i := 0; i < 64; i++ {
		put(i) // past the first flushes and level-0 compactions
	}
	kb := allocBytesPerOp(ops, put) / 1024
	t.Logf("%.1f KB per durable put over %d puts", kb, ops)
	if kb > budgetKB {
		t.Fatalf("a durable put allocates %.1f KB, budget %d KB", kb, budgetKB)
	}
}

// TestReclaimAllocBudget: reclaiming a full extent (256 one-page chunks, every
// second one dead) may build the extent image once, and for each live chunk
// its new frame and the device's page image — the candidates borrow their
// payloads from the image. Measured: 2 990 KB per reclaimed extent; at the
// parent, which copied every decodable frame's payload out of the image,
// garbage included, 5 964 KB.
func TestReclaimAllocBudget(t *testing.T) {
	const perExtent = 256
	const budgetKB = 3328 // measured + 11 %
	st := newNode4k(t, 32)
	keys := node4kKeys(3 * perExtent)
	for i, k := range keys {
		if _, err := st.Put(k, node4kValueFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The first data extent the puts filled: all of it shard chunks.
	victim := st.Chunks().ReclaimCandidates()[0]
	if ptr := st.Extents().Pointer(victim); ptr != perExtent*node4kPage {
		t.Fatalf("victim e%d holds %d B, want a full extent", victim, ptr)
	}
	for i := 0; i < len(keys); i += 2 {
		if _, err := st.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Pump(); err != nil {
		t.Fatal(err)
	}
	before := st.Chunks().Stats()
	kb := allocBytesPerOp(1, func(int) {
		if err := st.Reclaim(victim); err != nil {
			t.Fatalf("Reclaim(e%d): %v", victim, err)
		}
	}) / 1024
	after := st.Chunks().Stats()
	evacuated, dropped := after.Evacuated-before.Evacuated, after.GarbageDropped-before.GarbageDropped
	t.Logf("%.0f KB to reclaim e%d (%d chunks evacuated, %d dropped)", kb, victim, evacuated, dropped)
	if evacuated+dropped != perExtent || evacuated < perExtent/2-2 || evacuated > perExtent/2+2 {
		t.Fatalf("victim was not a full extent of half-live shard chunks: %d evacuated, %d dropped", evacuated, dropped)
	}
	if kb > budgetKB {
		t.Fatalf("reclaiming a half-live extent allocates %.0f KB, budget %d KB", kb, budgetKB)
	}
	for i := 1; i < len(keys); i += 2 {
		if v, err := st.Get(keys[i]); err != nil || len(v) != node4kValue || v[0] != byte(i) {
			t.Fatalf("survivor %s after reclaim: %d bytes, %v", keys[i], len(v), err)
		}
	}
}

// BenchmarkConformanceParallel: the worker-pool scaling curve — the same
// clean conformance workload as BenchmarkStoreConformance at 1, 2, 4, and
// GOMAXPROCS workers, reporting cases/sec. The verdict is identical at
// every width (the determinism tests assert it); only throughput moves.
func BenchmarkConformanceParallel(b *testing.B) {
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			res := core.Run(storeConformanceConfig(b.N, workers))
			if res.Failure != nil {
				b.Fatalf("clean run failed: %v", res.Failure.Err)
			}
			b.ReportMetric(float64(res.Cases)/b.Elapsed().Seconds(), "cases/sec")
		})
	}
}

// BenchmarkShuttleHarness: Fig 4 interleavings per second.
func BenchmarkShuttleHarness(b *testing.B) {
	body := core.Fig4Harness(faults.NewSet())
	rep := shuttle.Explore(shuttle.Options{Strategy: shuttle.NewRandom(3), Iterations: b.N}, body)
	if rep.Failed() {
		b.Fatalf("clean harness failed: %v", rep.First())
	}
	if rep.Iterations > 0 {
		b.ReportMetric(float64(rep.TotalSteps)/float64(rep.Iterations), "sched-points/interleaving")
	}
}

// BenchmarkFig5Detection: time to detect a representative seeded bug (#4,
// the fastest deterministic one) end to end, including minimization.
func BenchmarkFig5Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.DetectSequential(faults.Bug4DiskReturnLosesShard, int64(i+1), 2000)
		if !res.Detected {
			b.Fatal("bug4 not detected")
		}
	}
}

// BenchmarkMinimization: shrinking a failing sequence (§4.3).
func BenchmarkMinimization(b *testing.B) {
	// Find one failure, then measure minimization alone.
	res := core.DetectSequential(faults.Bug9RefModelCrashReclaim, 99, 20000)
	if !res.Detected {
		b.Fatal("setup: bug9 not detected")
	}
	cfg := core.DetectionConfig(faults.Bug9RefModelCrashReclaim, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fails := func(cand []core.Op) bool {
			_, _, err := core.RunSeq(cand, cfg)
			return err != nil
		}
		if !fails(res.Failure.Seq) {
			b.Fatal("original no longer fails")
		}
		_ = core.StatsOf(res.Failure.Seq)
		_ = fails
	}
}

// BenchmarkBiasAblation: cases per second with vs without argument biasing
// (§4.2) — biasing costs nothing; its value is detection probability.
func BenchmarkBiasAblation(b *testing.B) {
	for _, mode := range []struct {
		name string
		bias core.Bias
	}{{"biased", core.DefaultBias()}, {"unbiased", core.NoBias()}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.Config{Seed: 3, Cases: b.N, OpsPerCase: 40, Bias: mode.bias}
			res := core.Run(cfg)
			if res.Failure != nil {
				b.Fatalf("clean run failed: %v", res.Failure.Err)
			}
		})
	}
}

// BenchmarkCrashStates: coarse RebootType crashes vs exhaustive block-level
// enumeration (§5) — the "dramatically slower" comparison.
func BenchmarkCrashStates(b *testing.B) {
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"coarse", false}, {"exhaustive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.Config{
				Seed: 21, Cases: b.N, OpsPerCase: 30, Bias: core.DefaultBias(),
				EnableCrashes: true, EnableReboots: true,
				ExhaustiveCrash: mode.exhaustive,
			}
			res := core.Run(cfg)
			if res.Failure != nil {
				b.Fatalf("clean run failed: %v", res.Failure.Err)
			}
		})
	}
}

// BenchmarkMCStrategies: scheduling throughput of the three §6 strategies on
// the same small body.
func BenchmarkMCStrategies(b *testing.B) {
	body := func() {
		var mu vsync.Mutex
		n := 0
		h1 := vsync.Go("a", func() { mu.Lock(); n++; mu.Unlock() })
		h2 := vsync.Go("b", func() { mu.Lock(); n++; mu.Unlock() })
		h1.Join()
		h2.Join()
		if n != 2 {
			panic("lost update")
		}
	}
	for _, s := range []func() shuttle.Strategy{
		func() shuttle.Strategy { return shuttle.NewRandom(1) },
		func() shuttle.Strategy { return shuttle.NewPCT(1, 3, 100) },
		func() shuttle.Strategy { return shuttle.NewDFS() },
	} {
		strat := s()
		b.Run(strat.Name(), func(b *testing.B) {
			rep := shuttle.Explore(shuttle.Options{Strategy: s(), Iterations: b.N}, body)
			if rep.Failed() {
				b.Fatalf("failed: %v", rep.First())
			}
		})
	}
}

// BenchmarkLinearizabilityCheck: checker throughput on an 8-op history.
func BenchmarkLinearizabilityCheck(b *testing.B) {
	spec := linearize.KVSpec()
	h := []linearize.Operation{
		{Client: 1, Input: linearize.KVInput{Op: "put", Key: "a", Value: "1"}, Output: linearize.KVOutput{Found: true}, Invoke: 1, Return: 6},
		{Client: 2, Input: linearize.KVInput{Op: "put", Key: "a", Value: "2"}, Output: linearize.KVOutput{Found: true}, Invoke: 2, Return: 7},
		{Client: 3, Input: linearize.KVInput{Op: "get", Key: "a"}, Output: linearize.KVOutput{Value: "2", Found: true}, Invoke: 8, Return: 9},
		{Client: 3, Input: linearize.KVInput{Op: "get", Key: "a"}, Output: linearize.KVOutput{Value: "2", Found: true}, Invoke: 10, Return: 11},
		{Client: 4, Input: linearize.KVInput{Op: "put", Key: "b", Value: "3"}, Output: linearize.KVOutput{Found: true}, Invoke: 3, Return: 12},
		{Client: 5, Input: linearize.KVInput{Op: "get", Key: "b"}, Output: linearize.KVOutput{Found: false}, Invoke: 4, Return: 5},
		{Client: 6, Input: linearize.KVInput{Op: "delete", Key: "a"}, Output: linearize.KVOutput{Found: false}, Invoke: 13, Return: 14},
		{Client: 7, Input: linearize.KVInput{Op: "get", Key: "a"}, Output: linearize.KVOutput{Found: false}, Invoke: 15, Return: 16},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linearize.Check(spec, h).Ok {
			b.Fatal("linearizable history rejected")
		}
	}
}

// BenchmarkSerializationRobustness: decoder validations per second (§7).
func BenchmarkSerializationRobustness(b *testing.B) {
	frame, _ := chunk.EncodeFrame(chunk.TagData, "key", make([]byte, 256), chunk.UUID{1})
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutated := append([]byte(nil), frame...)
		mutated[i%len(mutated)] ^= 0xFF
		_ = chunk.VerifyFrameBytes(mutated)
	}
}

// BenchmarkScrubThroughput: scrub verification throughput in pages/sec over
// a replicated store — a clean pass (verify only) vs a pass where ~1% of the
// shards have one rotted replica each round (verify + quarantine + repair).
func BenchmarkScrubThroughput(b *testing.B) {
	const shards = 64
	for _, mode := range []struct {
		name    string
		rotters int // shards with one rotted replica per round
	}{{"clean", 0}, {"rot-1pct", (shards + 99) / 100}} {
		b.Run(mode.name, func(b *testing.B) {
			set := faults.NewSet()
			set.Enable(faults.FaultSilentCorruption)
			cfg := store.Config{Seed: 1, Bugs: set, Replicas: 2}
			cfg.Disk = disk.Config{PageSize: 4096, PagesPerExtent: 64, ExtentCount: 64, Faults: set}
			cfg.MaxMemEntries = 128
			cfg.AutoFlushThreshold = 64
			st, d, err := store.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 3800)
			for i := 0; i < shards; i++ {
				if _, err := st.Put(fmt.Sprintf("k%04d", i), val); err != nil {
					b.Fatal(err)
				}
			}
			settle := func() {
				if _, err := st.FlushIndex(); err != nil {
					b.Fatal(err)
				}
				if _, err := st.FlushSuperblock(); err != nil {
					b.Fatal(err)
				}
				if err := st.Scheduler().Pump(); err != nil {
					b.Fatal(err)
				}
				if err := d.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			settle()
			ps := d.Config().PageSize
			pages := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.rotters > 0 {
					b.StopTimer()
					// Quiesce so repairs from the previous round are on the
					// durable image, then rot one replica of the next few
					// shards (round-robin so repair targets keep moving).
					settle()
					for r := 0; r < mode.rotters; r++ {
						key := fmt.Sprintf("k%04d", (i*mode.rotters+r)%shards)
						entry, err := st.Index().Get(key)
						if err != nil {
							b.Fatal(err)
						}
						groups, err := store.DecodeEntryGroups(entry)
						if err != nil {
							b.Fatal(err)
						}
						loc := groups[0][0]
						d.CorruptPage(loc.Extent, loc.Offset/ps, disk.RotFlip, int64(i))
					}
					b.StartTimer()
				}
				res, err := st.ScrubRound()
				if err != nil {
					b.Fatal(err)
				}
				if res.Irreparable > 0 {
					b.Fatalf("irreparable piece during benchmark: %+v", res)
				}
				pages += (res.BytesVerified + ps - 1) / ps
			}
			b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/sec")
		})
	}
}

// BenchmarkLSMLookup: index lookups across several runs.
func BenchmarkLSMLookup(b *testing.B) {
	st := newBenchStore(b)
	for i := 0; i < 64; i++ {
		_, _ = st.Put(fmt.Sprintf("k%04d", i), []byte{byte(i)})
		if i%16 == 15 {
			_, _ = st.FlushIndex()
		}
	}
	tree := st.Index()
	if tree.RunCount() < 2 {
		b.Fatal("want multiple runs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Get(fmt.Sprintf("k%04d", i%64)); err != nil && err != lsm.ErrNotFound {
			b.Fatal(err)
		}
	}
}
