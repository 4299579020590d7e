package buffercache

import (
	"bytes"
	"testing"
)

func TestInsertGet(t *testing.T) {
	c := New(4, nil)
	k := Key{Extent: 1, Offset: 128}
	c.Insert(k, "owner", []byte("data"))
	got, owner := c.Get(k)
	if !bytes.Equal(got, []byte("data")) || owner != "owner" {
		t.Fatalf("get: %q %q", got, owner)
	}
	if v, _ := c.Get(Key{Extent: 2}); v != nil {
		t.Fatal("phantom hit")
	}
}

func TestInsertCopiesData(t *testing.T) {
	c := New(4, nil)
	data := []byte{1, 2, 3}
	c.Insert(Key{}, "k", data)
	data[0] = 99
	got, _ := c.Get(Key{})
	if got[0] != 1 {
		t.Fatal("cache aliases caller's buffer")
	}
}

func TestOverwriteUpdatesEntry(t *testing.T) {
	c := New(4, nil)
	k := Key{Extent: 1}
	c.Insert(k, "a", []byte{1})
	c.Insert(k, "b", []byte{2})
	got, owner := c.Get(k)
	if got[0] != 2 || owner != "b" {
		t.Fatalf("overwrite: %v %q", got, owner)
	}
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, nil)
	c.Insert(Key{Extent: 1}, "1", []byte{1})
	c.Insert(Key{Extent: 2}, "2", []byte{2})
	c.Get(Key{Extent: 1}) // touch 1: 2 becomes LRU
	c.Insert(Key{Extent: 3}, "3", []byte{3})
	if v, _ := c.Get(Key{Extent: 2}); v != nil {
		t.Fatal("LRU entry not evicted")
	}
	if v, _ := c.Get(Key{Extent: 1}); v == nil {
		t.Fatal("recently used entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions: %d", c.Stats().Evictions)
	}
}

func TestZeroCapacityDisablesCaching(t *testing.T) {
	c := New(0, nil)
	c.Insert(Key{}, "k", []byte{1})
	if v, _ := c.Get(Key{}); v != nil {
		t.Fatal("zero-capacity cache stored data")
	}
}

func TestDrainExtent(t *testing.T) {
	c := New(8, nil)
	c.Insert(Key{Extent: 1, Offset: 0}, "a", []byte{1})
	c.Insert(Key{Extent: 1, Offset: 128}, "b", []byte{2})
	c.Insert(Key{Extent: 2, Offset: 0}, "c", []byte{3})
	c.DrainExtent(1)
	if v, _ := c.Get(Key{Extent: 1, Offset: 0}); v != nil {
		t.Fatal("extent 1 entry survived drain")
	}
	if v, _ := c.Get(Key{Extent: 1, Offset: 128}); v != nil {
		t.Fatal("extent 1 entry survived drain")
	}
	if v, _ := c.Get(Key{Extent: 2, Offset: 0}); v == nil {
		t.Fatal("extent 2 entry drained")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(8, nil)
	c.Insert(Key{Extent: 1}, "a", []byte{1})
	c.Invalidate(Key{Extent: 1})
	c.Invalidate(Key{Extent: 5}) // absent: no-op
	if c.Len() != 0 {
		t.Fatalf("len: %d", c.Len())
	}
}

func TestDrainAll(t *testing.T) {
	c := New(8, nil)
	for i := 0; i < 5; i++ {
		c.Insert(Key{Extent: 1, Offset: i * 10}, "k", []byte{byte(i)})
	}
	c.DrainAll()
	if c.Len() != 0 {
		t.Fatalf("len after drain all: %d", c.Len())
	}
	// The LRU list must be consistent after a full drain.
	c.Insert(Key{Extent: 9}, "x", []byte{9})
	if v, _ := c.Get(Key{Extent: 9}); v == nil {
		t.Fatal("insert after drain failed")
	}
}

func TestStatsCounting(t *testing.T) {
	c := New(2, nil)
	c.Insert(Key{Extent: 1}, "a", []byte{1})
	c.Get(Key{Extent: 1})
	c.Get(Key{Extent: 2})
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestEvictionChurn(t *testing.T) {
	// Exercise the intrusive list under heavy churn; detects broken links.
	c := New(8, nil)
	for i := 0; i < 1000; i++ {
		c.Insert(Key{Extent: 1, Offset: i % 24}, "k", []byte{byte(i)})
		if i%3 == 0 {
			c.Get(Key{Extent: 1, Offset: (i + 5) % 24})
		}
		if i%7 == 0 {
			c.Invalidate(Key{Extent: 1, Offset: i % 24})
		}
	}
	if c.Len() > 8 {
		t.Fatalf("over capacity: %d", c.Len())
	}
}
