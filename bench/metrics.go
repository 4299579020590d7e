package main

import "shardstore/internal/obs"

// metric is one reported number: n is how many samples (or counted events)
// stand behind it, 0 when the workload does not exercise what it measures.
// Its unit is its declaration's.
type metric struct {
	value float64
	n     int64
}

// decl names a metric of BENCHMARK.json. The lists below are the program's
// side of that file; TestBenchmarkJSON keeps the two equal.
type decl struct{ name, unit string }

// endToEnd metrics come from the untraced pass, on every workload. An "op"
// is the workload's primary op: Get on read_zipf and rpc_pipeline, a durable
// put on write_durable, a scan page on scan_mixed, a harness case on
// conformance.
var endToEnd = []decl{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p95_us", "us"},
	{"device_us_per_op", "us"},
	{"write_amp", "x"},
	{"alloc_kb_per_op", "KB"},
	{"setup_s", "s"},
}

// perLayer metrics come from an invocation with -trace 1, which runs the
// untraced pass, then the traced pass, then the probes.
var perLayer = []decl{
	// What the caller sees per op class; untraced pass.
	{"e2e.op_p99_us", "us"},
	{"e2e.get_p50_us", "us"}, {"e2e.get_p99_us", "us"},
	{"e2e.put_p50_us", "us"}, {"e2e.put_p99_us", "us"},
	{"e2e.scan1_p50_us", "us"}, {"e2e.scan256_p50_us", "us"}, {"e2e.scan_p99_us", "us"},
	{"e2e.space_amp", "x"}, {"e2e.heap_live_mb", "MB"}, {"e2e.fail_ratio", "ratio"},

	{"rpc.client_call_us", "us"}, {"rpc.kv_call_us", "us"}, {"rpc.overhead_us", "us"},
	{"rpc.noop_roundtrip_us", "us"}, {"rpc.bytes_per_op", "B"}, {"rpc.failures", "count"},
	{"rpc.pipeline_depth_mean", "count"}, {"rpc.queue_wait_us", "us"}, {"rpc.reply_wait_us", "us"},

	{"store.get_us", "us"}, {"store.put_us", "us"}, {"store.scan_us", "us"}, {"store.wait_durable_us", "us"},
	{"store.get_self_us", "us"}, {"store.scan_entries_per_scan", "count"}, {"store.errors", "count"},
	{"store.open_ms", "ms"},

	{"lsm.get_us", "us"}, {"lsm.scan1_us", "us"}, {"lsm.scan256_us", "us"}, {"lsm.scan_alloc_kb", "KB"},
	{"lsm.runs_probed_per_get", "count"}, {"lsm.flushes", "count"}, {"lsm.run_loads", "count"},
	{"lsm.flush_ms", "ms"}, {"lsm.runs_end", "count"}, {"lsm.levels_end", "count"},

	{"compact.steps", "count"}, {"compact.aborts", "count"},
	{"compact.bytes_rewritten_per_user_byte", "x"}, {"compact.busy_ms", "ms"},

	{"chunk.get_hit_us", "us"}, {"chunk.get_miss_us", "us"}, {"chunk.put_us", "us"},
	{"chunk.reclaims", "count"}, {"chunk.reclaim_aborts", "count"},
	{"chunk.evacuated_bytes_per_user_byte", "x"}, {"chunk.reclaim_yield", "ratio"},
	{"chunk.pressure_sweeps", "count"}, {"chunk.reclaim_ms", "ms"},

	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"}, {"cache.get_us", "us"},

	{"extent.flush_ms", "ms"}, {"extent.writable_min", "count"}, {"extent.used_bytes_end", "B"},

	{"sched.ios_per_put", "count"}, {"sched.coalesced_ratio", "ratio"}, {"sched.syncs_per_put", "count"},
	{"sched.followers_ratio", "ratio"}, {"sched.group_size_mean", "count"}, {"sched.barrier_wait_us", "us"},
	{"sched.step_ms", "ms"},

	{"disk.reads_per_get", "count"}, {"disk.writes_per_put", "count"}, {"disk.syncs_per_put", "count"},
	{"disk.bytes_read_per_op", "B"}, {"disk.bytes_written_per_put", "B"}, {"disk.read_us", "us"},
	{"disk.sync_ms", "ms"},

	{"core.ops_per_case", "count"}, {"core.crashes_per_case", "count"}, {"core.alloc_kb_per_case", "KB"},
	{"core.detect_cases", "count"}, {"core.detect_ms", "ms"},

	{"go.allocs_per_op", "count"}, {"go.alloc_bytes_per_op", "B"}, {"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.maint_share", "ratio"}, {"bench.trace_overhead", "ratio"},
}

// ratio is a/b with n = b, or the zero metric when b is 0.
func ratio(a, b float64) (float64, int64) {
	if b == 0 {
		return 0, 0
	}
	return a / b, int64(b)
}

func (p *pass) opsPerS() float64 { return float64(p.attempted) / p.wall.Seconds() }

// endToEndMetrics reads the untraced pass.
func endToEndMetrics(p *pass) map[string]metric {
	ops := float64(p.attempted)
	return map[string]metric{
		"ops_per_s":        {p.opsPerS(), p.attempted},
		"op_p50_us":        {p.primary.p50, int64(p.primary.n)},
		"op_p95_us":        {p.primary.p95, int64(p.primary.n)},
		"device_us_per_op": {p.d.deviceUs() / ops, p.attempted},
		"write_amp":        {p.d.c("disk.bytes_written") / float64(p.userBytes), p.userBytes},
		"alloc_kb_per_op":  {float64(p.mem.allocBytes) / 1024 / ops, p.attempted},
		"setup_s":          {median(p.setup), int64(len(p.setup))},
	}
}

// perLayerMetrics reads the untraced pass m (Δ counters, gauges, what the
// caller sees), the traced pass t (spans, wall-clock histograms) and t's
// probes. A percentile needs 1000 samples for its p99 and 100 for its p50.
func perLayerMetrics(m, t *pass) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	set := func(name string, v float64, n int64) {
		if n == 0 {
			v = 0
		}
		out[name] = metric{value: v, n: n}
	}
	p50 := func(name string, l latStat) {
		if l.n >= 100 {
			set(name, l.p50, int64(l.n))
		}
	}
	p99 := func(name string, l latStat) {
		if l.n >= 1000 {
			set(name, l.p99, int64(l.n))
		}
	}
	mean := func(name string, s meanStat) { set(name, s.mean, s.n) }
	spans := t.rec.stats()
	spanMean := func(name string, sp spanName) { set(name, spans[sp].meanUs(), spans[sp].n) }
	spanMs := func(name string, sp spanName) { set(name, spans[sp].totalMs(), spans[sp].n) }
	count := func(name, counter string) { set(name, m.d.c(counter), 1) }
	per := func(name string, a, b float64) { v, n := ratio(a, b); set(name, v, n) }
	hist := func(name, h string, scale float64) { v, n := t.d.histMean(h); set(name, v*scale, n) }
	ops, puts, gets, user := float64(m.attempted), float64(m.puts), float64(m.gets), float64(m.userBytes)
	node := m.w.keys > 0 // every workload but conformance drives nodes of its own

	p99("e2e.op_p99_us", m.primary)
	p50("e2e.get_p50_us", m.lat[clsGet])
	p99("e2e.get_p99_us", m.lat[clsGet])
	p50("e2e.put_p50_us", m.lat[clsPut])
	p99("e2e.put_p99_us", m.lat[clsPut])
	p50("e2e.scan1_p50_us", m.lat[clsScan1])
	p50("e2e.scan256_p50_us", m.lat[clsScan256])
	p99("e2e.scan_p99_us", m.scanAll)
	per("e2e.space_amp", float64(m.usedBytes), float64(m.liveBytes))
	set("e2e.heap_live_mb", float64(m.heapLive)/(1<<20), 1)
	set("e2e.fail_ratio", float64(m.failed)/ops, m.attempted)

	if m.w.name == "rpc_pipeline" {
		spanMean("rpc.client_call_us", spRPCClient)
		kv := spanStat{
			n:     spans[spStoreGet].n + spans[spStorePut].n + spans[spStoreScan].n,
			total: spans[spStoreGet].total + spans[spStorePut].total + spans[spStoreScan].total,
		}
		set("rpc.kv_call_us", kv.meanUs(), kv.n)
		set("rpc.overhead_us", spans[spRPCClient].meanUs()-kv.meanUs(), kv.n)
		mean("rpc.noop_roundtrip_us", t.pr.rpcNoop)
		per("rpc.bytes_per_op", m.d.c("rpc.bytes_in")+m.d.c("rpc.bytes_out"), ops)
		count("rpc.failures", "rpc.failures")
		hist("rpc.pipeline_depth_mean", "rpc.pipeline_depth", 1)
		mean("rpc.queue_wait_us", t.rpcStages[obs.StageQueueWait])
		mean("rpc.reply_wait_us", t.rpcStages[obs.StageReply])
	}

	if node {
		spanMean("store.get_us", spStoreGet)
		spanMean("store.put_us", spStorePut)
		spanMean("store.scan_us", spStoreScan)
		spanMean("store.wait_durable_us", spStoreWait)
		hits, misses := m.d.c("cache.hits"), m.d.c("cache.misses")
		if hm := hits + misses; hm > 0 && spans[spStoreGet].n > 0 && t.pr.lsmGet.n > 0 {
			chunkUs := (hits*t.pr.chunkHit.mean + misses*t.pr.chunkMiss.mean) / hm
			set("store.get_self_us", spans[spStoreGet].meanUs()-t.pr.lsmGet.mean-chunkUs, spans[spStoreGet].n)
		}
		per("store.scan_entries_per_scan", m.d.c("store.scan_entries"), m.d.c("store.scans"))
		set("store.errors", m.d.c("store.get_errors")+m.d.c("store.put_errors")+m.d.c("store.scan_errors"), 1)
		spanMs("store.open_ms", spStoreOpen)

		mean("lsm.get_us", t.pr.lsmGet)
		mean("lsm.scan1_us", t.pr.lsmScan1)
		mean("lsm.scan256_us", t.pr.lsmScan256)
		mean("lsm.scan_alloc_kb", t.pr.lsmScanAllocKB)
		per("lsm.runs_probed_per_get", m.d.c("lsm.runs_probed"), m.d.c("lsm.gets"))
		count("lsm.flushes", "lsm.flushes")
		count("lsm.run_loads", "lsm.run_loads")
		spanMs("lsm.flush_ms", spLsmFlush)
		set("lsm.runs_end", float64(m.d.after.Gauges["lsm.runs"]), 1)
		set("lsm.levels_end", float64(m.d.after.Gauges["lsm.levels"]), 1)

		count("compact.steps", "compact.steps")
		count("compact.aborts", "compact.aborts")
		per("compact.bytes_rewritten_per_user_byte", m.d.c("compact.bytes_rewritten"), user)
		spanMs("compact.busy_ms", spCompact)

		mean("chunk.get_hit_us", t.pr.chunkHit)
		mean("chunk.get_miss_us", t.pr.chunkMiss)
		hist("chunk.put_us", "chunk.put_lat", 1e-3)
		count("chunk.reclaims", "chunk.reclaims")
		count("chunk.reclaim_aborts", "chunk.reclaim_aborts")
		per("chunk.evacuated_bytes_per_user_byte", m.d.c("chunk.bytes_evacuated"), user)
		per("chunk.reclaim_yield", m.d.c("chunk.garbage_dropped"), m.d.c("chunk.garbage_dropped")+m.d.c("chunk.evacuated"))
		set("chunk.pressure_sweeps", float64(m.m.sweeps), 1)
		spanMs("chunk.reclaim_ms", spChunkReclaim)

		per("cache.hit_ratio", hits, hits+misses)
		count("cache.evictions", "cache.evictions")
		mean("cache.get_us", t.pr.cacheGet)

		spanMs("extent.flush_ms", spExtentFlush)
		set("extent.writable_min", float64(m.m.writableMin), m.m.ticks)
		set("extent.used_bytes_end", float64(m.usedBytes), 1)

		per("sched.ios_per_put", m.d.c("sched.ios"), puts)
		per("sched.coalesced_ratio", m.d.c("sched.coalesced"), m.d.c("sched.ios")+m.d.c("sched.coalesced"))
		per("sched.syncs_per_put", m.d.c("sched.syncs"), puts)
		per("sched.followers_ratio", m.d.c("sched.commit_followers"), m.d.c("sched.commits"))
		hist("sched.group_size_mean", "sched.group_size", 1)
		hist("sched.barrier_wait_us", "sched.barrier_wait", 1e-3)
		spanMs("sched.step_ms", spSchedStep)

		per("disk.reads_per_get", m.d.c("disk.reads"), gets)
		per("disk.writes_per_put", m.d.c("disk.writes"), puts)
		per("disk.syncs_per_put", m.d.c("disk.syncs"), puts)
		per("disk.bytes_read_per_op", m.d.c("disk.bytes_read"), ops)
		per("disk.bytes_written_per_put", m.d.c("disk.bytes_written"), puts)
		mean("disk.read_us", t.pr.diskRead)
		spanMs("disk.sync_ms", spDiskSync)

		set("bench.maint_share", m.m.busy.Seconds()/m.wall.Seconds(), m.m.ticks)
	} else {
		per("core.ops_per_case", float64(m.caseOps), ops)
		per("core.crashes_per_case", float64(m.crashes), ops)
		per("core.alloc_kb_per_case", float64(m.mem.allocBytes)/1024, ops)
		set("core.detect_cases", float64(t.detectCases), 1)
		set("core.detect_ms", t.detectMs, 1)
	}

	per("go.allocs_per_op", float64(m.mem.mallocs), ops)
	per("go.alloc_bytes_per_op", float64(m.mem.allocBytes), ops)
	set("go.gc_cycles", float64(m.mem.gcCycles), 1)
	set("go.gc_pause_ms", float64(m.mem.gcPauseNs)/1e6, int64(m.mem.gcCycles))
	set("bench.trace_overhead", 1-t.opsPerS()/m.opsPerS(), t.attempted)

	return out
}
