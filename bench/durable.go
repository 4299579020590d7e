package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"shardstore/internal/obs"
	"shardstore/internal/store"
)

const durableWriters = 8

// durable is the write_durable load: writers on disjoint key partitions, each
// put waited durable before the writer's next one. Foreground ops hold gate
// for reading; a tick takes it for writing, because a tick that runs inside
// another caller's WaitDurable makes that wait fail (a product defect this
// yardstick must not start from).
type durable struct {
	p    *pass
	st   *store.Store
	sh   *shadow
	gate sync.RWMutex

	mu      sync.Mutex // guards m, opSeq and the pass's shared tallies
	m       *maint
	opSeq   uint32
	samples [][]uint32 // one per writer, merged after the phase
}

func runWriteDurable(p *pass) error {
	var d *durable
	build := func() error {
		st, _, err := store.New(nodeConfig(1, p.w.cacheCap, p.nodeObs()))
		if err != nil {
			return err
		}
		d = &durable{p: p, st: st, sh: newShadow(p.w.keys, p.w.valSize), m: newMaint([]*store.Store{st}, p.rec)}
		buf := make([]byte, p.w.valSize)
		for k := range d.sh.keys {
			fillValue(buf, uint32(k), 1)
			if _, err := st.Put(d.sh.keys[k], buf); err != nil {
				return fmt.Errorf("load %s: %w", d.sh.keys[k], err)
			}
			d.sh.ver[k], d.sh.live[k] = 1, true
			if d.m.due(1, len(buf)) {
				d.m.tick()
			}
		}
		if err := quiesce(st); err != nil {
			return err
		}
		d.writers(p.warm, 0)
		return nil
	}
	if err := p.setUp(build, func() {}); err != nil {
		return err
	}
	p.stores, p.m = []*store.Store{d.st}, d.m
	p.timed(func() obs.Snapshot { return snapshot(p.stores) }, func() {
		d.writers(p.ops, 1)
		for _, s := range d.samples {
			p.samples[clsPut] = append(p.samples[clsPut], s...)
		}
	})

	d.m.tick()
	p.usedBytes, p.liveBytes = usedBytes(d.st), d.sh.liveBytes()
	d.crashAndVerify()
	if p.traced() && p.violations == 0 {
		p.probeStore()
	}
	return nil
}

// writers runs n puts split evenly over the writers and waits for them.
// phase varies the writers' seeds between warm-up and the timed phase.
func (d *durable) writers(n int, phase int64) {
	per := n / durableWriters
	d.samples = make([][]uint32, durableWriters)
	var wg sync.WaitGroup
	for w := 0; w < durableWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.writer(w, per, rand.New(rand.NewSource(d.p.seed+1000*phase+int64(w)+1)))
		}(w)
	}
	wg.Wait()
}

func (d *durable) writer(w, n int, rng *rand.Rand) {
	part := len(d.sh.keys) / durableWriters
	buf := make([]byte, d.sh.valSize)
	samples := make([]uint32, 0, n)
	rec := d.p.rec
	for i := 0; i < n; i++ {
		k := w*part + rng.Intn(part)
		ver := d.sh.ver[k] + 1
		fillValue(buf, uint32(k), ver)

		d.mu.Lock()
		d.opSeq++
		op := d.opSeq
		d.mu.Unlock()

		d.gate.RLock()
		root := rec.start(spOp, 0, op)
		id := rec.start(spStorePut, root, op)
		t0 := time.Now()
		dep, err := d.st.Put(d.sh.keys[k], buf)
		rec.finish(id)
		if err == nil {
			id = rec.start(spStoreWait, root, op)
			err = d.st.WaitDurable(dep)
			rec.finish(id)
		}
		lat := time.Since(t0)
		rec.finish(root)
		d.gate.RUnlock()

		if err == nil {
			// Acknowledged durable: the version the crash check will demand.
			d.sh.ver[k] = ver
			samples = append(samples, uint32(lat))
		}
		d.mu.Lock()
		if d.p.timing {
			d.p.attempted++
			d.p.puts++
			d.p.userBytes += int64(len(buf))
		}
		if err != nil {
			d.p.fail("durable put "+d.sh.keys[k], err)
		}
		due := d.m.due(1, len(buf))
		d.mu.Unlock()
		if due {
			d.gate.Lock()
			d.m.tick()
			d.gate.Unlock()
		}
	}
	d.samples[w] = samples
}

// crashAndVerify is the durability oracle: crash with a torn write cache,
// recover from the disk alone, and demand every acknowledged version.
func (d *durable) crashAndVerify() {
	cfg, dk := d.st.Config(), d.st.Disk()
	d.st.Crash(rand.New(rand.NewSource(d.p.seed)))
	if rec := d.p.rec; rec != nil {
		rec.on.Store(true)
		defer rec.on.Store(false)
	}
	id := d.p.rec.start(spStoreOpen, 0, 0)
	st, err := store.Open(dk, cfg)
	d.p.rec.finish(id)
	if err != nil {
		d.p.violate("recovery after crash: %v", err)
		return
	}
	d.p.stores[0] = st
	for k := range d.sh.keys {
		v, err := st.Get(d.sh.keys[k])
		if errors.Is(err, store.ErrNotFound) {
			d.p.violate("%s: acknowledged put lost in the crash", d.sh.keys[k])
		} else if err != nil {
			d.p.violate("%s: unreadable after the crash: %v", d.sh.keys[k], err)
		} else if cerr := d.sh.check(k, v); cerr != nil {
			d.p.violate("after crash: %v", cerr)
		}
	}
}
