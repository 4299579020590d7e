package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/vsync"
)

// TestGetRejectsMalformedLocator: a locator is decoded from an index entry,
// so Get treats it as bytes from disk — it is validated before it sizes a
// buffer or indexes the extent table. The first three rows crashed the
// process before the check existed (index out of range, makeslice, out of
// memory).
func TestGetRejectsMalformedLocator(t *testing.T) {
	env, res := newEnv(t, nil)
	good, _, release, err := env.cs.Put(TagData, "k", []byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	res.live[good] = "k"
	release()
	capacity := env.em.Capacity()

	for _, tc := range []struct {
		name string
		loc  Locator
	}{
		{"extent out of range", Locator{Extent: 9999, Offset: 0, Length: 64}},
		{"negative length", Locator{Extent: good.Extent, Offset: 0, Length: -1}},
		{"huge length", Locator{Extent: good.Extent, Offset: 0, Length: 1 << 40}},
		{"negative offset", Locator{Extent: good.Extent, Offset: -128, Length: 64}},
		{"zero length", Locator{Extent: good.Extent, Offset: 0, Length: 0}},
		{"past the extent's end", Locator{Extent: good.Extent, Offset: capacity - 64, Length: 128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errsBefore := env.cs.Stats().GetErrors
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			payload, key, err := env.cs.GetWithKey(tc.loc)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadLocator) {
				t.Fatalf("Get(%v) = %v, want ErrBadLocator", tc.loc, err)
			}
			if payload != nil || key != "" {
				t.Fatalf("Get(%v) returned data with its error: %q %q", tc.loc, payload, key)
			}
			if got := env.cs.Stats().GetErrors - errsBefore; got != 1 {
				t.Fatalf("chunk.get_errors moved by %d, want 1", got)
			}
			// The error text is all a rejected locator may cost (a few
			// hundred bytes; the bound leaves room for the race detector).
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("rejecting %v allocated %d B", tc.loc, got)
			}
		})
	}

	payload, key, err := env.cs.GetWithKey(good)
	if err != nil || key != "k" || !bytes.Equal(payload, []byte("still here")) {
		t.Fatalf("well-formed Get after the rejections: %q %q %v", payload, key, err)
	}
}

// lockedResolver is mapResolver for tests that read the live set while a
// reclamation is relocating it.
type lockedResolver struct {
	mu vsync.Mutex
	m  mapResolver
}

func (r *lockedResolver) ChunkLive(key string, loc Locator) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.ChunkLive(key, loc)
}

func (r *lockedResolver) RelocateChunk(key string, old, newLoc Locator, newDep *dep.Dependency) (bool, *dep.Dependency, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.RelocateChunk(key, old, newLoc, newDep)
}

func (r *lockedResolver) SyncReferences() (*dep.Dependency, error) { return dep.Resolved(), nil }

// locate returns key's current locator.
func (r *lockedResolver) locate(key string) (Locator, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for loc, k := range r.m.live {
		if k == key {
			return loc, true
		}
	}
	return Locator{}, false
}

// TestReclaimEvacuatesExactBytes: the reclamation scan lends each candidate
// its payload out of the extent image rather than copying it, so this reads
// every survivor of two reclaimed extents byte for byte through its new
// locator — page-aligned and unaligned frames, one- and two-page ones — while
// a reader hammers the survivors, and checks the dropped chunks are gone.
func TestReclaimEvacuatesExactBytes(t *testing.T) {
	env, _ := newEnv(t, nil)
	res := &lockedResolver{m: mapResolver{live: make(map[Locator]string)}}
	env.cs.RegisterResolver(TagData, res)
	env.cs.RegisterResolver(TagIndexRun, res)
	ps := env.sched.Disk().Config().PageSize

	// Payload lengths: a frame of exactly one page, exactly two, and frames
	// that end mid-page (one byte, a few, just over a page).
	overhead := FrameLen(len("c000"), 0)
	lengths := []int{ps - overhead, 1, 2*ps - overhead, 10, ps - overhead + 1, 100}
	content := func(i, n int) []byte {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i*31 + j*7 + 1)
		}
		return b
	}

	type chunkInfo struct {
		key     string
		old     Locator
		payload []byte
	}
	var all []chunkInfo
	var victims []disk.ExtentID
	// Put until the append target has moved past two filled extents.
	for i := 0; ; i++ {
		key := fmt.Sprintf("c%03d", i)
		payload := content(i, lengths[i%len(lengths)])
		loc, _, release, err := env.cs.Put(TagData, key, payload)
		if err != nil {
			t.Fatal(err)
		}
		release()
		if !slices.Contains(victims, loc.Extent) {
			if len(victims) == 2 {
				res.m.live[loc] = key // the roll-over chunk: live, not on a victim
				break
			}
			victims = append(victims, loc.Extent)
		}
		all = append(all, chunkInfo{key: key, old: loc, payload: payload})
		if i%3 != 0 {
			res.m.live[loc] = key
		}
	}
	env.pump(t)

	var survivors, dropped []chunkInfo
	wantBytes := uint64(0)
	for i, c := range all {
		if i%3 != 0 {
			survivors = append(survivors, c)
			wantBytes += uint64(len(c.payload))
		} else {
			dropped = append(dropped, c)
		}
	}
	if len(dropped) < 4 || len(survivors) < 8 {
		t.Fatalf("layout too small to mean anything: %d dropped, %d survivors", len(dropped), len(survivors))
	}

	// The reader follows each survivor through whatever locator it has at
	// the moment. A locator can go stale between the lookup and the read (the
	// chunk moved and its extent was reset); the frame's owner key says so,
	// as it does for the store layer. A read that does name the survivor
	// must carry exactly its bytes.
	stop, started := make(chan struct{}), make(chan struct{})
	reader := vsync.Go("survivor-reader", func() {
		close(started)
		for {
			for _, c := range survivors {
				select {
				case <-stop:
					return
				default:
				}
				loc, ok := res.locate(c.key)
				if !ok {
					t.Errorf("survivor %s lost from the live set", c.key)
					return
				}
				payload, key, err := env.cs.GetWithKey(loc)
				if err != nil || key != c.key {
					continue
				}
				if !bytes.Equal(payload, c.payload) {
					t.Errorf("concurrent read of %s at %v: wrong bytes", c.key, loc)
					return
				}
			}
		}
	})
	<-started
	var reclaimErr error
	for _, v := range victims {
		if reclaimErr = env.cs.Reclaim(v); reclaimErr != nil {
			break
		}
	}
	close(stop)
	reader.Join()
	if reclaimErr != nil {
		t.Fatalf("Reclaim: %v", reclaimErr)
	}

	st := env.cs.Stats()
	if st.Evacuated != uint64(len(survivors)) || st.GarbageDropped != uint64(len(dropped)) || st.BytesEvacuated != wantBytes {
		t.Fatalf("evacuated %d chunks / %d B, dropped %d; want %d / %d, %d",
			st.Evacuated, st.BytesEvacuated, st.GarbageDropped, len(survivors), wantBytes, len(dropped))
	}
	for pass, name := range []string{"as left by reclaim", "cache drained"} {
		if pass == 1 {
			env.cs.Cache().DrainAll()
		}
		for _, c := range survivors {
			loc, ok := res.locate(c.key)
			if !ok || loc == c.old {
				t.Fatalf("%s: survivor %s not relocated (%v)", name, c.key, loc)
			}
			payload, key, err := env.cs.GetWithKey(loc)
			if err != nil || key != c.key {
				t.Fatalf("%s: survivor %s at %v: key %q, %v", name, c.key, loc, key, err)
			}
			if !bytes.Equal(payload, c.payload) {
				t.Fatalf("%s: survivor %s at %v: %d bytes differ from the %d put", name, c.key, loc, len(payload), len(c.payload))
			}
		}
	}
	for _, c := range dropped {
		if _, ok := res.locate(c.key); ok {
			t.Fatalf("dropped chunk %s is back in the live set", c.key)
		}
		// Its old locator is on a reset extent: unreadable, or by now some
		// evacuated survivor's frame — never the dropped chunk.
		if _, key, err := env.cs.GetWithKey(c.old); err == nil && key == c.key {
			t.Fatalf("dropped chunk %s still readable at %v", c.key, c.old)
		}
	}
}
