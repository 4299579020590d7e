package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"shardstore/internal/dep"
	"shardstore/internal/obs"
	"shardstore/internal/rpc"
	"shardstore/internal/store"
)

const (
	rpcDisks = 2
	rpcDepth = 32 // calls the one client keeps in flight
	rpcScan  = 16 // limit of the blocking scans
)

// spanKV is the store.KV handed to the rpc server in a traced pass: the
// store with a span around each request-plane call, which is where the rpc
// layer ends and the store begins. Everything else is the embedded store's.
type spanKV struct {
	*store.Store
	p *pass
}

func (s spanKV) Get(id string) ([]byte, error) {
	sp := s.p.rec.start(spStoreGet, 0, 0)
	defer s.p.rec.finish(sp)
	return s.Store.Get(id)
}

func (s spanKV) Put(id string, v []byte) (*dep.Dependency, error) {
	sp := s.p.rec.start(spStorePut, 0, 0)
	defer s.p.rec.finish(sp)
	return s.Store.Put(id, v)
}

func (s spanKV) Scan(start, end string, limit int) ([]store.ScanEntry, bool, error) {
	sp := s.p.rec.start(spStoreScan, 0, 0)
	defer s.p.rec.finish(sp)
	return s.Store.Scan(start, end, limit)
}

// call is one request in flight.
type call struct {
	c        class
	k        int
	ver      uint32 // the version a put writes
	lo       uint32 // a get may not return a version older than this
	rc       *rpc.Call
	t0       time.Time
	root, sp uint32
}

// pipeline is the rpc_pipeline load: one goroutine, one v2 connection,
// rpcDepth calls in flight, completions observed in issue order.
//
// The server runs a connection's requests on a worker pool, so two calls on
// one key may execute in either order. A key therefore has at most one put in
// flight, and a get may return any version from the last one observed
// complete when it was issued to the last one issued when it completed.
type pipeline struct {
	p      *pass
	srv    *rpc.Server
	cl     *rpc.Client
	stores []*store.Store
	sh     *shadow
	m      *maint
	rng    *rand.Rand
	keys   *zipfKeys
	putBuf []byte
	opID   uint32

	issued   []uint32       // latest version sent per key
	done     []uint32       // latest version observed complete per key
	putting  []bool         // a put on the key is in flight
	window   [rpcDepth]call // FIFO ring: inflight calls from head
	head     int
	inflight int
}

func runRPCPipeline(p *pass) error {
	var pl *pipeline
	build := func() error {
		var err error
		pl, err = newPipeline(p)
		if err != nil {
			return err
		}
		for k := range pl.sh.keys {
			pl.put(k, false)
			pl.afterOp(p.w.valSize)
		}
		pl.drain()
		for _, st := range pl.stores {
			if err := quiesce(st); err != nil {
				return err
			}
		}
		pl.loop(p.warm)
		return nil
	}
	if err := p.setUp(build, func() { pl.close() }); err != nil {
		return err
	}
	defer pl.close()
	p.stores, p.m = pl.stores, pl.m
	p.timed(func() obs.Snapshot { return snapshot(p.stores, pl.srv.Obs()) }, func() { pl.loop(p.ops) })

	pl.m.tick()
	for _, st := range pl.stores {
		p.usedBytes += usedBytes(st)
	}
	p.liveBytes = pl.sh.liveBytes()
	pl.verifyAll()
	if p.traced() {
		pl.serverStages()
		p.probeRPC(pl.cl)
		p.probeStore()
	}
	return nil
}

func newPipeline(p *pass) (*pipeline, error) {
	pl := &pipeline{
		p: p, sh: newShadow(p.w.keys, p.w.valSize), putBuf: make([]byte, p.w.valSize),
		issued: make([]uint32, p.w.keys), done: make([]uint32, p.w.keys), putting: make([]bool, p.w.keys),
	}
	pl.rng = rand.New(rand.NewSource(p.seed))
	pl.keys = newZipfKeys(pl.rng, p.w.keys)
	kvs := make([]store.KV, rpcDisks)
	for i := range kvs {
		st, _, err := store.New(nodeConfig(int64(i+1), p.w.cacheCap, p.nodeObs()))
		if err != nil {
			return nil, err
		}
		pl.stores = append(pl.stores, st)
		if p.traced() {
			kvs[i] = spanKV{Store: st, p: p}
		} else {
			kvs[i] = st
		}
	}
	pl.m = newMaint(pl.stores, p.rec)
	// The server meters itself on the logical clock unless the pass is traced.
	srvObs := obs.New(nil)
	if p.traced() {
		srvObs = tracedObs()
	}
	pl.srv = rpc.NewServerKV(kvs, srvObs)
	addr, err := pl.srv.Serve("127.0.0.1:0")
	if err != nil {
		pl.srv.Close()
		return nil, err
	}
	pl.cl, err = rpc.Dial(addr)
	if err != nil {
		pl.srv.Close()
		return nil, err
	}
	pl.cl.SetTracing(p.traced())
	return pl, nil
}

func (pl *pipeline) close() {
	_ = pl.cl.Close() // nothing is in flight; the server's Close reports nothing
	pl.srv.Close()
}

func (pl *pipeline) loop(n int) {
	for i := 0; i < n; i++ {
		pl.opID++
		putBytes := 0
		k := pl.keys.next()
		switch u := pl.rng.Float64(); {
		case u < 0.78:
			pl.get(k)
		case u < 0.98:
			pl.put(k, false)
			putBytes = pl.sh.valSize
		case u < 0.99:
			pl.scan(k)
		default:
			pl.put(k, true)
			putBytes = pl.sh.valSize
		}
		pl.afterOp(putBytes)
	}
	pl.drain()
}

func (pl *pipeline) afterOp(putBytes int) {
	if pl.p.timing {
		pl.p.attempted++
		pl.p.userBytes += int64(putBytes)
	}
	if pl.m.due(1, putBytes) {
		pl.drain()
		pl.m.tick()
	}
}

func (pl *pipeline) push(c call) {
	if pl.inflight == rpcDepth {
		pl.completeOldest()
	}
	pl.window[(pl.head+pl.inflight)%rpcDepth] = c
	pl.inflight++
}

func (pl *pipeline) drain() {
	for pl.inflight > 0 {
		pl.completeOldest()
	}
}

func (pl *pipeline) begin(c class, k int) call {
	root := pl.p.rec.start(spOp, 0, pl.opID)
	sp := pl.p.rec.start(spRPCClient, root, pl.opID)
	if pl.p.timing {
		if c == clsGet {
			pl.p.gets++
		} else if c == clsPut {
			pl.p.puts++
		}
	}
	return call{c: c, k: k, root: root, sp: sp, t0: time.Now()}
}

func (pl *pipeline) end(c *call) {
	pl.p.observe(c.c, time.Since(c.t0))
	pl.p.rec.finish(c.sp)
}

func (pl *pipeline) get(k int) {
	c := pl.begin(clsGet, k)
	c.lo = pl.done[k]
	c.rc = pl.cl.GoGet(pl.sh.keys[k])
	pl.push(c)
}

func (pl *pipeline) put(k int, durable bool) {
	for pl.putting[k] {
		pl.completeOldest()
	}
	pl.issued[k]++
	fillValue(pl.putBuf, uint32(k), pl.issued[k])
	c := pl.begin(clsPut, k)
	c.ver = pl.issued[k]
	if !durable {
		pl.putting[k] = true
		c.rc = pl.cl.GoPut(pl.sh.keys[k], pl.putBuf)
		pl.push(c)
		return
	}
	err := pl.cl.PutDurable(context.Background(), pl.sh.keys[k], pl.putBuf)
	pl.end(&c)
	pl.putDone(&c, err)
	pl.p.rec.finish(c.root)
}

func (pl *pipeline) putDone(c *call, err error) {
	pl.putting[c.k] = false
	if err != nil {
		pl.p.fail("put "+pl.sh.keys[c.k], err)
		return
	}
	pl.done[c.k] = c.ver
	pl.sh.ver[c.k], pl.sh.live[c.k] = c.ver, true
}

func (pl *pipeline) completeOldest() {
	c := pl.window[pl.head]
	pl.head = (pl.head + 1) % rpcDepth
	pl.inflight--
	v, err := c.rc.Wait(context.Background())
	pl.end(&c)
	if c.c == clsPut {
		pl.putDone(&c, err)
	} else if err != nil {
		pl.p.fail("get "+pl.sh.keys[c.k], err)
	} else if cerr := pl.checkVersion(c.k, v, c.lo); cerr != nil {
		pl.p.violate("get %v", cerr)
	}
	pl.p.rec.finish(c.root)
}

func (pl *pipeline) checkVersion(k int, v []byte, lo uint32) error {
	ver, err := pl.sh.versionOf(k, v)
	if err == nil && (ver < lo || ver > pl.issued[k]) {
		err = fmt.Errorf("%s: version %d outside [%d, %d]", pl.sh.keys[k], ver, lo, pl.issued[k])
	}
	return err
}

// scan blocks while the window stays in flight. No key is ever deleted here,
// so the page must be the next rpcScan keys, each at an admissible version.
func (pl *pipeline) scan(k int) {
	c := pl.begin(clsScan16, k)
	page, _, err := pl.cl.Scan(context.Background(), pl.sh.keys[k], "", rpcScan)
	pl.end(&c)
	want := min(rpcScan, len(pl.sh.keys)-k)
	switch {
	case err != nil:
		pl.p.fail("scan "+pl.sh.keys[k], err)
	case len(page) != want:
		pl.p.violate("scan %s: %d entries, want %d", pl.sh.keys[k], len(page), want)
	default:
		for i, e := range page {
			if e.Key != pl.sh.keys[k+i] {
				pl.p.violate("scan %s: entry %d is %s, want %s", pl.sh.keys[k], i, e.Key, pl.sh.keys[k+i])
				break
			}
			if cerr := pl.checkVersion(k+i, e.Value, pl.done[k+i]); cerr != nil {
				pl.p.violate("scan %v", cerr)
				break
			}
		}
	}
	pl.p.rec.finish(c.root)
}

func (pl *pipeline) verifyAll() {
	for k := range pl.sh.keys {
		v, err := pl.cl.Get(context.Background(), pl.sh.keys[k])
		if err != nil {
			pl.p.fail("get "+pl.sh.keys[k], err)
		} else if cerr := pl.sh.check(k, v); cerr != nil {
			pl.p.violate("get %v", cerr)
		}
	}
}

// serverStages reads the server's retained request traces and averages the
// two stages that belong to the rpc layer alone.
func (pl *pipeline) serverStages() {
	dump, err := pl.cl.Trace(context.Background())
	if err != nil {
		pl.p.violate("trace op: %v", err)
		return
	}
	sums := map[string]*meanStat{obs.StageQueueWait: {}, obs.StageReply: {}}
	for _, t := range dump.Traces {
		for _, st := range t.Stages {
			if s := sums[st.Name]; s != nil {
				s.n++
				s.mean += float64(st.Dur()) / 1e3
			}
		}
	}
	pl.p.rpcStages = make(map[string]meanStat)
	for name, s := range sums {
		if s.n > 0 {
			s.mean /= float64(s.n)
		}
		pl.p.rpcStages[name] = *s
	}
}
