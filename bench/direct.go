package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"shardstore/internal/obs"
	"shardstore/internal/store"
)

// mix is a single-client op mix: cumulative shares of get, put and delete;
// the rest are scans whose limit is drawn from scanLimits.
type mix struct{ get, put, del float64 }

var scanLimits = [...]int{1, 16, 256}

// client is the one closed-loop caller of the direct-store workloads. Every
// answer is checked against the shadow map before the next op is sent.
type client struct {
	p      *pass
	st     *store.Store
	sh     *shadow
	m      *maint
	rng    *rand.Rand
	keys   *zipfKeys
	mix    mix
	putBuf []byte
	opID   uint32
}

func runReadZipf(p *pass) error  { return runDirect(p, mix{get: 0.95, put: 1.00, del: 1.00}) }
func runScanMixed(p *pass) error { return runDirect(p, mix{get: 0.30, put: 0.37, del: 0.40}) }

func runDirect(p *pass, mx mix) error {
	var c *client
	build := func() error {
		st, _, err := store.New(nodeConfig(1, p.w.cacheCap, p.nodeObs()))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(p.seed))
		c = &client{
			p: p, st: st, sh: newShadow(p.w.keys, p.w.valSize), m: newMaint([]*store.Store{st}, p.rec),
			rng: rng, keys: newZipfKeys(rng, p.w.keys), mix: mx, putBuf: make([]byte, p.w.valSize),
		}
		for k := range c.sh.keys {
			c.put(k)
			c.afterOp(p.w.valSize)
		}
		if err := quiesce(st); err != nil {
			return err
		}
		c.loop(p.warm)
		return nil
	}
	if err := p.setUp(build, func() {}); err != nil {
		return err
	}
	p.stores, p.m = []*store.Store{c.st}, c.m
	p.timed(func() obs.Snapshot { return snapshot(p.stores) }, func() { c.loop(p.ops) })

	c.m.tick()
	p.usedBytes, p.liveBytes = usedBytes(c.st), c.sh.liveBytes()
	c.verifyAll()
	if p.traced() {
		p.probeStore()
	}
	return nil
}

func (c *client) loop(n int) {
	for i := 0; i < n; i++ {
		c.opID++
		putBytes := 0
		k := c.keys.next()
		switch u := c.rng.Float64(); {
		case u < c.mix.get:
			c.get(k)
		case u < c.mix.put:
			c.put(k)
			putBytes = c.sh.valSize
		case u < c.mix.del:
			c.del(k)
		default:
			c.scan(k, c.rng.Intn(len(scanLimits)))
		}
		c.afterOp(putBytes)
	}
}

func (c *client) afterOp(putBytes int) {
	if c.p.timing {
		c.p.attempted++
		c.p.userBytes += int64(putBytes)
	}
	if c.m.due(1, putBytes) {
		c.m.tick()
	}
}

func (c *client) get(k int) {
	rec := c.p.rec
	root := rec.start(spOp, 0, c.opID)
	id := rec.start(spStoreGet, root, c.opID)
	t0 := time.Now()
	v, err := c.st.Get(c.sh.keys[k])
	d := time.Since(t0)
	rec.finish(id)
	c.p.observe(clsGet, d)
	if c.p.timing {
		c.p.gets++
	}
	c.checkGet(k, v, err)
	rec.finish(root)
}

func (c *client) checkGet(k int, v []byte, err error) {
	switch {
	case !c.sh.live[k]:
		// Not found on a deleted key is the right answer, not a failure.
		if !errors.Is(err, store.ErrNotFound) {
			c.p.violate("get %s: deleted key answered (%d bytes, err %v)", c.sh.keys[k], len(v), err)
		}
	case err != nil:
		c.p.fail("get "+c.sh.keys[k], err)
	default:
		if cerr := c.sh.check(k, v); cerr != nil {
			c.p.violate("get %v", cerr)
		}
	}
}

func (c *client) put(k int) {
	rec := c.p.rec
	ver := c.sh.ver[k] + 1
	fillValue(c.putBuf, uint32(k), ver)
	root := rec.start(spOp, 0, c.opID)
	id := rec.start(spStorePut, root, c.opID)
	t0 := time.Now()
	_, err := c.st.Put(c.sh.keys[k], c.putBuf)
	d := time.Since(t0)
	rec.finish(id)
	rec.finish(root)
	c.p.observe(clsPut, d)
	if c.p.timing {
		c.p.puts++
	}
	if err != nil {
		c.p.fail("put "+c.sh.keys[k], err)
		return
	}
	c.sh.ver[k], c.sh.live[k] = ver, true
}

func (c *client) del(k int) {
	rec := c.p.rec
	root := rec.start(spOp, 0, c.opID)
	id := rec.start(spStoreDelete, root, c.opID)
	t0 := time.Now()
	_, err := c.st.Delete(c.sh.keys[k])
	d := time.Since(t0)
	rec.finish(id)
	rec.finish(root)
	c.p.observe(clsDelete, d)
	if err != nil {
		c.p.fail("delete "+c.sh.keys[k], err)
		return
	}
	c.sh.live[k] = false
}

func (c *client) scan(k, li int) {
	rec := c.p.rec
	limit := scanLimits[li]
	root := rec.start(spOp, 0, c.opID)
	id := rec.start(spStoreScan, root, c.opID)
	t0 := time.Now()
	page, more, err := c.st.Scan(c.sh.keys[k], "", limit)
	d := time.Since(t0)
	rec.finish(id)
	c.p.observe(clsScan1+class(li), d)
	if err != nil {
		c.p.fail("scan "+c.sh.keys[k], err)
	} else if cerr := c.checkPage(k, limit, page, more); cerr != nil {
		c.p.violate("scan %s limit %d: %v", c.sh.keys[k], limit, cerr)
	}
	rec.finish(root)
}

// checkPage requires the page to be exactly the shadow's: the first limit
// live keys at or after the start key, in order, at their versions, with more
// set iff a live key follows.
func (c *client) checkPage(k, limit int, page []store.ScanEntry, more bool) error {
	if len(page) > limit {
		return fmt.Errorf("%d entries", len(page))
	}
	i := 0
	for ; k < len(c.sh.keys) && i < limit; k++ {
		if !c.sh.live[k] {
			continue
		}
		if i == len(page) {
			return fmt.Errorf("page ends at %d entries, %s missing", i, c.sh.keys[k])
		}
		if page[i].Key != c.sh.keys[k] {
			return fmt.Errorf("entry %d is %s, want %s", i, page[i].Key, c.sh.keys[k])
		}
		if err := c.sh.check(k, page[i].Value); err != nil {
			return err
		}
		i++
	}
	if i < len(page) {
		return fmt.Errorf("entry %d (%s) is beyond the range", i, page[i].Key)
	}
	wantMore := false
	for ; k < len(c.sh.keys) && !wantMore; k++ {
		wantMore = c.sh.live[k]
	}
	if more != wantMore {
		return fmt.Errorf("more=%v, want %v", more, wantMore)
	}
	return nil
}

// verifyAll reads every key back once the run is over.
func (c *client) verifyAll() {
	for k := range c.sh.keys {
		v, err := c.st.Get(c.sh.keys[k])
		c.checkGet(k, v, err)
	}
}
