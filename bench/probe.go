package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"shardstore/internal/buffercache"
	"shardstore/internal/chunk"
	"shardstore/internal/rpc"
	"shardstore/internal/store"
)

// Probe sizes: fixed-count loops on the end state of the traced pass. A scan
// page costs a thousand point reads today, hence the smaller count.
const (
	probePoints = 20000
	probeScans  = 200
)

// probes are the layer costs no span of the driver can reach: calls made
// below the store, straight into the layer, with keys drawn from the
// workload's own distribution.
type probes struct {
	lsmGet, lsmScan1, lsmScan256, lsmScanAllocKB meanStat
	chunkHit, chunkMiss, cacheGet, diskRead      meanStat
	rpcNoop                                      meanStat
}

// timeCalls is the mean wall time of fn over the given arguments, in µs.
// prep, if any, runs untimed before each call.
func timeCalls[T any](args []T, prep, fn func(T)) meanStat {
	if len(args) == 0 {
		return meanStat{}
	}
	var total time.Duration
	for _, a := range args {
		if prep != nil {
			prep(a)
		}
		t0 := time.Now()
		fn(a)
		total += time.Since(t0)
	}
	return meanStat{n: int64(len(args)), mean: float64(total) / float64(len(args)) / 1e3}
}

// probeStore probes the first store of the pass.
func (p *pass) probeStore() {
	scale := p.probeScale
	st := p.stores[0]
	idx, cs, pr := st.Index(), st.Chunks(), &p.pr
	rng := rand.New(rand.NewSource(p.seed + 7))
	zk := newZipfKeys(rng, p.w.keys)

	// Keep the draws this store holds (the rpc workload steers half its keys
	// to the other disk; scan_mixed has deleted some), with the locator of
	// each one's first chunk.
	var keys []string
	var locs []chunk.Locator
	for i := 0; i < max(int(probePoints*scale), 1); i++ {
		key := keyName(zk.next())
		entry, err := idx.Get(key)
		if err != nil {
			continue
		}
		l, err := store.DecodeEntry(entry)
		if err != nil || len(l) == 0 {
			p.violate("probe: index entry of %s: %v", key, err)
			continue
		}
		keys, locs = append(keys, key), append(locs, l[0])
	}

	pr.lsmGet = timeCalls(keys, nil, func(k string) {
		if _, err := idx.Get(k); err != nil {
			p.violate("probe: lsm get %s: %v", k, err)
		}
	})
	chunkGet := func(l chunk.Locator) {
		if _, err := cs.Get(l); err != nil {
			p.violate("probe: chunk get %v: %v", l, err)
		}
	}
	ckey := func(l chunk.Locator) buffercache.Key { return buffercache.Key{Extent: l.Extent, Offset: l.Offset} }
	pr.chunkMiss = timeCalls(locs, func(l chunk.Locator) { cs.Cache().Invalidate(ckey(l)) }, chunkGet)
	// A miss leaves its chunk cached only until a later one evicts it, so each
	// timed hit is preceded by an untimed read of the same chunk.
	pr.chunkHit = timeCalls(locs, chunkGet, chunkGet)
	pr.cacheGet = timeCalls(locs, nil, func(l chunk.Locator) { cs.Cache().Get(ckey(l)) })

	page := make([]byte, st.Config().Disk.PageSize)
	pr.diskRead = timeCalls(locs, nil, func(l chunk.Locator) {
		if err := st.Disk().ReadAt(l.Extent, l.Offset-l.Offset%len(page), page); err != nil {
			p.violate("probe: disk read %v: %v", l, err)
		}
	})

	if !p.w.scans {
		return
	}
	starts := make([]string, max(int(probeScans*scale), 1))
	for i := range starts {
		starts[i] = keyName(zk.next())
	}
	scan := func(limit int) func(string) {
		return func(start string) {
			if _, _, err := idx.Scan(start, "", limit); err != nil {
				p.violate("probe: lsm scan %s: %v", start, err)
			}
		}
	}
	pr.lsmScan1 = timeCalls(starts, nil, scan(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr.lsmScan256 = timeCalls(starts, nil, scan(256))
	runtime.ReadMemStats(&after)
	pr.lsmScanAllocKB = meanStat{n: int64(len(starts)), mean: float64(after.TotalAlloc-before.TotalAlloc) / float64(len(starts)) / 1024}
}

// probeRPC times the cheapest round trip the protocol has, one at a time.
func (p *pass) probeRPC(cl *rpc.Client) {
	calls := make([]struct{}, max(int(probePoints*p.probeScale), 1))
	p.pr.rpcNoop = timeCalls(calls, nil, func(struct{}) {
		if _, err := cl.Stats(context.Background()); err != nil {
			p.violate("probe: stats op: %v", err)
		}
	})
}
