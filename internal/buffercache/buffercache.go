// Package buffercache implements the chunk-granularity read cache that sits
// between the chunk store and the disk.
//
// Entries are keyed by chunk locator (extent, offset). Because extents are
// recycled by reclamation — reset and then rewritten from offset zero — a
// locator can be reborn naming different data, so the cache must be drained
// for an extent when it is reset. Failing to do so is the paper's bug #2
// ("cache was not correctly drained after resetting an extent"), and the
// paper's §8.3 missed-bug anecdote (a cache sized so large that tests never
// exercised the miss path) motivates the hit/miss coverage probes.
package buffercache

import (
	"shardstore/internal/disk"
	"shardstore/internal/obs"
	"shardstore/internal/vsync"
)

// Key identifies a cached chunk by physical position.
type Key struct {
	Extent disk.ExtentID
	Offset int
}

// Stats counts cache activity. It is a thin snapshot of the cache's obs
// registry counters; the cache keeps no counter state of its own.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	Drains    uint64
}

// cacheMetrics holds the obs handles, resolved once at construction.
type cacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	inserts   *obs.Counter
	evictions *obs.Counter
	drains    *obs.Counter
	entries   *obs.Gauge
}

type entry struct {
	key      Key
	ownerKey string
	data     []byte
	prev     *entry
	next     *entry
}

// Cache is a fixed-capacity LRU cache of chunk payloads. It is safe for
// concurrent use and model-checkable.
type Cache struct {
	mu       vsync.Mutex
	obs      *obs.Obs
	met      cacheMetrics
	capacity int
	entries  map[Key]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
}

// New creates a cache holding up to capacity chunks. Capacity 0 disables
// caching entirely (every lookup misses). A nil o gives the cache a private
// registry so Stats keeps working standalone.
func New(capacity int, o *obs.Obs) *Cache {
	if o == nil {
		o = obs.New(nil)
	}
	return &Cache{
		obs:      o,
		capacity: capacity,
		entries:  make(map[Key]*entry),
		met: cacheMetrics{
			hits:      o.Counter("cache.hits"),
			misses:    o.Counter("cache.misses"),
			inserts:   o.Counter("cache.inserts"),
			evictions: o.Counter("cache.evictions"),
			drains:    o.Counter("cache.drains"),
			entries:   o.Gauge("cache.entries"),
		},
	}
}

// Get returns the cached payload and owning key for k, or (nil, "") if
// absent. The slice is lent, not given: it is the cache's own copy, read-only
// for the caller, who copies it before handing it to anyone who may write.
func (c *Cache) Get(k Key) ([]byte, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.met.misses.Inc()
		c.obs.Hit("cache.miss")
		return nil, ""
	}
	c.met.hits.Inc()
	c.obs.Hit("cache.hit")
	c.moveToFrontLocked(e)
	return e.data, e.ownerKey
}

// Insert caches data (owned by ownerKey) under k, evicting the least
// recently used entry when over capacity. data is copied: the caller keeps
// its slice and the cache never aliases it.
func (c *Cache) Insert(k Key, ownerKey string, data []byte) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		e.data = append([]byte(nil), data...)
		e.ownerKey = ownerKey
		c.moveToFrontLocked(e)
		return
	}
	e := &entry{key: k, ownerKey: ownerKey, data: append([]byte(nil), data...)}
	c.entries[k] = e
	c.pushFrontLocked(e)
	c.met.inserts.Inc()
	for len(c.entries) > c.capacity {
		lru := c.tail
		c.removeLocked(lru)
		delete(c.entries, lru.key)
		c.met.evictions.Inc()
		c.obs.Hit("cache.evict")
	}
	c.met.entries.Set(int64(len(c.entries)))
}

// Invalidate removes the entry for k, if any.
func (c *Cache) Invalidate(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.removeLocked(e)
		delete(c.entries, k)
		c.met.entries.Set(int64(len(c.entries)))
	}
}

// DrainExtent removes every entry on ext. Called when an extent is reset so
// recycled locators cannot serve stale data (bug #2 site — the caller skips
// this under the seeded fault).
func (c *Cache) DrainExtent(ext disk.ExtentID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.drains.Inc()
	c.obs.Hit("cache.drain")
	for k, e := range c.entries {
		if k.Extent == ext {
			c.removeLocked(e)
			delete(c.entries, k)
		}
	}
	c.met.entries.Set(int64(len(c.entries)))
}

// DrainAll empties the cache.
func (c *Cache) DrainAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*entry)
	c.head, c.tail = nil, nil
	c.met.entries.Set(0)
}

// Len returns the number of cached chunks.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache counters (reading the obs registry).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.met.hits.Value(),
		Misses:    c.met.misses.Value(),
		Inserts:   c.met.inserts.Value(),
		Evictions: c.met.evictions.Value(),
		Drains:    c.met.drains.Value(),
	}
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFrontLocked(e *entry) {
	if c.head == e {
		return
	}
	c.removeLocked(e)
	c.pushFrontLocked(e)
}
