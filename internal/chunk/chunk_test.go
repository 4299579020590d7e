package chunk

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/extent"
	"shardstore/internal/faults"
)

// --- frame encoding/decoding ---

func TestFrameRoundTrip(t *testing.T) {
	uuid := UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	frame, err := EncodeFrame(TagData, "shard-7", []byte("payload bytes"), uuid)
	if err != nil {
		t.Fatal(err)
	}
	h, key, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tag != TagData || key != "shard-7" || !bytes.Equal(payload, []byte("payload bytes")) {
		t.Fatalf("decode mismatch: %+v %q %q", h, key, payload)
	}
	if h.UUID != uuid {
		t.Fatal("uuid mismatch")
	}
	if h.FrameLen() != len(frame) {
		t.Fatalf("frame length %d vs %d", h.FrameLen(), len(frame))
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	frame, err := EncodeFrame(TagIndexRun, "", nil, UUID{})
	if err != nil {
		t.Fatal(err)
	}
	_, key, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" || len(payload) != 0 {
		t.Fatalf("empty round trip: %q %v", key, payload)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	frame, _ := EncodeFrame(TagData, "k", bytes.Repeat([]byte{7}, 50), UUID{9})
	for _, pos := range []int{0, 1, 20, 30, len(frame) - 1, len(frame) - 20} {
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0xFF
		if _, _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	frame, _ := EncodeFrame(TagData, "k", []byte("data"), UUID{1})
	for n := 0; n < len(frame); n += 7 {
		if _, _, _, err := DecodeFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d undetected", n)
		}
	}
}

// TestFrameDecodeNeverPanics is the §7 serialization-robustness property:
// any byte soup fed to the decoder must error, never panic.
func TestFrameDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _, _, _ = DecodeFrame(data) // must not panic
		_ = VerifyFrameBytes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial: valid magic with insane length fields.
	evil := make([]byte, 64)
	evil[0] = FrameMagic
	for i := range evil[17:25] {
		evil[17+i] = 0xFF
	}
	if _, _, _, err := DecodeFrame(evil); err == nil {
		t.Fatal("insane lengths accepted")
	}
}

func TestFrameEncodeDecodeProperty(t *testing.T) {
	f := func(keyRaw []byte, payload []byte, uuid UUID, tagRaw uint8) bool {
		if len(keyRaw) > 200 {
			keyRaw = keyRaw[:200]
		}
		key := string(keyRaw)
		tag := Tag(tagRaw % 2)
		frame, err := EncodeFrame(tag, key, payload, uuid)
		if err != nil {
			return false
		}
		h, gotKey, gotPayload, err := DecodeFrame(frame)
		return err == nil && gotKey == key && bytes.Equal(gotPayload, payload) && h.Tag == tag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLocatorEncoding(t *testing.T) {
	l := Locator{Extent: 7, Offset: 1234, Length: 99}
	buf := EncodeLocator(l)
	got, rest, err := DecodeLocator(buf)
	if err != nil || got != l || len(rest) != 0 {
		t.Fatalf("locator round trip: %v %v %v", got, rest, err)
	}
	if _, _, err := DecodeLocator(buf[:5]); err == nil {
		t.Fatal("short locator accepted")
	}
}

// --- chunk store over a real extent manager ---

type testEnv struct {
	cs    *Store
	em    *extent.Manager
	sched *dep.Scheduler
}

// mapResolver is a minimal resolver for tests: liveness by locator set.
type mapResolver struct {
	live map[Locator]string // locator -> key
}

func (r *mapResolver) ChunkLive(key string, loc Locator) bool {
	k, ok := r.live[loc]
	return ok && k == key
}

func (r *mapResolver) RelocateChunk(key string, old, newLoc Locator, newDep *dep.Dependency) (bool, *dep.Dependency, error) {
	if k, ok := r.live[old]; !ok || k != key {
		return false, nil, nil
	}
	delete(r.live, old)
	r.live[newLoc] = key
	return true, dep.Resolved(), nil
}

func (r *mapResolver) SyncReferences() (*dep.Dependency, error) { return dep.Resolved(), nil }

func newEnv(t *testing.T, bugs *faults.Set) (*testEnv, *mapResolver) {
	t.Helper()
	return newSeededEnv(t, bugs, 42, 0)
}

func newSeededEnv(t *testing.T, bugs *faults.Set, seed int64, uuidZeroBias float64) (*testEnv, *mapResolver) {
	t.Helper()
	d, err := disk.New(disk.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := dep.NewScheduler(d, dep.Options{})
	em, err := extent.NewManager(sched, extent.Config{}, bugs)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewStore(em, Config{CacheCapacity: 8, UUIDZeroBias: uuidZeroBias}, seed, bugs)
	res := &mapResolver{live: make(map[Locator]string)}
	cs.RegisterResolver(TagData, res)
	cs.RegisterResolver(TagIndexRun, res)
	return &testEnv{cs: cs, em: em, sched: sched}, res
}

func (e *testEnv) pump(t *testing.T) {
	t.Helper()
	if _, err := e.em.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.Pump(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetChunk(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, d, release, err := env.cs.Put(TagData, "key1", []byte("chunky"))
	if err != nil {
		t.Fatal(err)
	}
	res.live[loc] = "key1"
	release()
	payload, key, err := env.cs.GetWithKey(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, []byte("chunky")) || key != "key1" {
		t.Fatalf("get: %q %q", payload, key)
	}
	env.pump(t)
	if !d.IsPersistent() {
		t.Fatal("chunk dep not persistent after pump")
	}
}

func TestGetCachesOnReadPath(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, _, release, _ := env.cs.Put(TagData, "k", []byte("v"))
	res.live[loc] = "k"
	release()
	if _, _, err := env.cs.GetWithKey(loc); err != nil {
		t.Fatal(err)
	}
	before := env.cs.Cache().Stats()
	if _, _, err := env.cs.GetWithKey(loc); err != nil {
		t.Fatal(err)
	}
	after := env.cs.Cache().Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("second read should hit cache: %+v -> %+v", before, after)
	}
}

func TestChunksArePageAligned(t *testing.T) {
	env, res := newEnv(t, nil)
	ps := env.sched.Disk().Config().PageSize
	var locs []Locator
	for i := 0; i < 3; i++ {
		loc, _, release, err := env.cs.Put(TagData, "k", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		res.live[loc] = "k"
		release()
		locs = append(locs, loc)
	}
	for _, l := range locs {
		if l.Offset%ps != 0 {
			t.Fatalf("chunk not page aligned: %v", l)
		}
	}
}

func TestReclaimDropsGarbageKeepsLive(t *testing.T) {
	env, res := newEnv(t, nil)
	liveLoc, _, rel1, _ := env.cs.Put(TagData, "live", []byte("keep me"))
	res.live[liveLoc] = "live"
	rel1()
	deadLoc, _, rel2, _ := env.cs.Put(TagData, "dead", []byte("drop me"))
	rel2()
	_ = deadLoc // never registered as live: garbage
	env.pump(t)

	victim := liveLoc.Extent
	// The victim is the active extent; roll the active target forward first.
	for env.cs.ActiveExtent() == int(victim) {
		loc, _, rel, err := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{9}, 400))
		if err != nil {
			t.Fatal(err)
		}
		res.live[loc] = "fill"
		rel()
	}
	env.pump(t)
	if err := env.cs.Reclaim(victim); err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	st := env.cs.Stats()
	if st.Evacuated == 0 {
		t.Fatal("live chunk not evacuated")
	}
	if st.GarbageDropped == 0 {
		t.Fatal("garbage not dropped")
	}
	// The live chunk must be readable at its new location.
	var newLoc Locator
	for l, k := range res.live {
		if k == "live" {
			newLoc = l
		}
	}
	if newLoc == liveLoc {
		t.Fatal("live chunk not relocated")
	}
	payload, _, err := env.cs.GetWithKey(newLoc)
	if err != nil || !bytes.Equal(payload, []byte("keep me")) {
		t.Fatalf("relocated chunk unreadable: %v %q", err, payload)
	}
	if env.em.Pointer(victim) != 0 {
		t.Fatal("victim not reset")
	}
}

func TestReclaimRefusesActivePinnedReclaiming(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, _, release, _ := env.cs.Put(TagData, "k", []byte("v"))
	res.live[loc] = "k"
	// Pin held: extent busy.
	if err := env.cs.Reclaim(loc.Extent); !errors.Is(err, ErrBusy) {
		t.Fatalf("reclaim of active/pinned extent: %v", err)
	}
	release()
	// Still the active extent.
	if err := env.cs.Reclaim(loc.Extent); !errors.Is(err, ErrBusy) {
		t.Fatalf("reclaim of active extent: %v", err)
	}
}

func TestReclaimAbortsOnReadErrorFixed(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, _, release, _ := env.cs.Put(TagData, "k", []byte("precious"))
	res.live[loc] = "k"
	release()
	env.pump(t)
	victim := loc.Extent
	for env.cs.ActiveExtent() == int(victim) {
		l2, _, rel, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel()
	}
	env.pump(t)
	env.sched.Disk().InjectFailOnce(victim)
	if err := env.cs.Reclaim(victim); !errors.Is(err, ErrAborted) {
		t.Fatalf("reclaim under IO error: %v", err)
	}
	// The chunk survives the aborted reclamation.
	payload, _, err := env.cs.GetWithKey(loc)
	if err != nil || !bytes.Equal(payload, []byte("precious")) {
		t.Fatalf("chunk lost by aborted reclaim: %v", err)
	}
}

func TestBug5DropsChunkOnReadError(t *testing.T) {
	bugs := faults.NewSet(faults.Bug5ReclaimIOErrorDrop)
	env, res := newEnv(t, bugs)
	loc, _, release, _ := env.cs.Put(TagData, "k", []byte("precious"))
	res.live[loc] = "k"
	release()
	env.pump(t)
	victim := loc.Extent
	for env.cs.ActiveExtent() == int(victim) {
		l2, _, rel, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel()
	}
	env.pump(t)
	env.sched.Disk().InjectFailOnce(victim)
	if err := env.cs.Reclaim(victim); err != nil {
		t.Fatalf("buggy reclaim should continue: %v", err)
	}
	// The live chunk on the unreadable page was treated as garbage; after
	// the reset its locator is dead.
	if _, _, err := env.cs.GetWithKey(loc); err == nil {
		t.Fatal("bug5: chunk should be lost after reset")
	}
}

func TestBug1SkipsPageAlignedFrame(t *testing.T) {
	bugs := faults.NewSet(faults.Bug1ReclaimOffByOne)
	env, res := newEnv(t, bugs)
	ps := env.sched.Disk().Config().PageSize
	// First chunk's frame exactly one page: payload = ps - overhead.
	payload1 := make([]byte, ps-FrameLen(len("a"), 0))
	locA, _, relA, _ := env.cs.Put(TagData, "a", payload1)
	res.live[locA] = "a"
	relA()
	if locA.Length != ps {
		t.Fatalf("frame length %d, want exactly one page %d", locA.Length, ps)
	}
	locB, _, relB, _ := env.cs.Put(TagData, "b", []byte("victim"))
	res.live[locB] = "b"
	relB()
	env.pump(t)
	victim := locA.Extent
	for env.cs.ActiveExtent() == int(victim) {
		l2, _, rel, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel()
	}
	env.pump(t)
	if err := env.cs.Reclaim(victim); err != nil {
		t.Fatal(err)
	}
	// Chunk B (immediately after the page-aligned frame) was skipped by the
	// off-by-one and destroyed by the reset.
	if _, ok := res.live[locB]; ok {
		if _, _, err := env.cs.GetWithKey(locB); err == nil {
			t.Fatal("bug1: chunk after page-aligned frame should be lost")
		}
	}
}

func TestBug2StaleCacheAfterReset(t *testing.T) {
	bugs := faults.NewSet(faults.Bug2CacheNotDrained)
	env, res := newEnv(t, bugs)
	loc, _, release, _ := env.cs.Put(TagData, "old", []byte("stale!"))
	release() // garbage: never registered live
	// Read it once so the cache holds it.
	if _, _, err := env.cs.GetWithKey(loc); err != nil {
		t.Fatal(err)
	}
	env.pump(t)
	victim := loc.Extent
	for env.cs.ActiveExtent() == int(victim) {
		l2, _, rel, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel()
	}
	env.pump(t)
	if err := env.cs.Reclaim(victim); err != nil {
		t.Fatal(err)
	}
	// Write a new chunk at the recycled locator.
	var newLoc Locator
	for {
		l2, _, rel, err := env.cs.Put(TagData, "new", []byte("fresh!"))
		if err != nil {
			t.Fatal(err)
		}
		res.live[l2] = "new"
		rel()
		if l2.Extent == victim && l2.Offset == loc.Offset {
			newLoc = l2
			break
		}
		if env.em.Pointer(victim) > loc.Offset {
			t.Skip("recycled offset not reproduced in this layout")
		}
	}
	payload, _, err := env.cs.GetWithKey(Locator{Extent: newLoc.Extent, Offset: newLoc.Offset, Length: loc.Length})
	if err == nil && bytes.Equal(payload, []byte("stale!")) {
		return // bug manifested: stale data served
	}
	// With identical frame sizes the cache key collides directly.
	payload2, _, err2 := env.cs.GetWithKey(newLoc)
	if err2 == nil && bytes.Equal(payload2, []byte("stale!")) {
		return
	}
	t.Fatal("bug2 did not serve stale cache data (layout assumptions changed?)")
}

func TestReclaimAutoPicksCandidates(t *testing.T) {
	env, res := newEnv(t, nil)
	ran, err := env.cs.ReclaimAuto()
	if err != nil || ran {
		t.Fatalf("nothing to reclaim: ran=%v err=%v", ran, err)
	}
	loc, _, rel, _ := env.cs.Put(TagData, "k", []byte("x"))
	res.live[loc] = "k"
	rel()
	env.pump(t)
	for env.cs.ActiveExtent() == int(loc.Extent) {
		l2, _, rel2, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel2()
	}
	env.pump(t)
	ran, err = env.cs.ReclaimAuto()
	if err != nil || !ran {
		t.Fatalf("auto reclaim: ran=%v err=%v", ran, err)
	}
}

func TestChunkTooBig(t *testing.T) {
	env, _ := newEnv(t, nil)
	big := make([]byte, env.em.Capacity())
	if _, _, _, err := env.cs.Put(TagData, "k", big); !errors.Is(err, ErrChunkTooBig) {
		t.Fatalf("oversized chunk: %v", err)
	}
}

func TestReseedDeterminism(t *testing.T) {
	env1, _ := newEnv(t, nil)
	env2, _ := newEnv(t, nil)
	env1.cs.Reseed(777)
	env2.cs.Reseed(777)
	l1, _, r1, _ := env1.cs.Put(TagData, "k", []byte("v"))
	l2, _, r2, _ := env2.cs.Put(TagData, "k", []byte("v"))
	r1()
	r2()
	if l1 != l2 {
		t.Fatalf("reseeded stores diverged: %v vs %v", l1, l2)
	}
	// The frames (including UUIDs) must be identical.
	b1 := make([]byte, l1.Length)
	b2 := make([]byte, l2.Length)
	_ = env1.em.Read(l1.Extent, l1.Offset, l1.Length, b1)
	_ = env2.em.Read(l2.Extent, l2.Offset, l2.Length, b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("frames differ after identical reseed")
	}

	// The stream itself is pinned, not just its repeatability: committed case
	// indices and minimized traces hang off the exact UUIDs. Whatever mix of
	// NewStore, Reseed and draws precedes a put, its UUID is the one a newly
	// built generator with the last recorded seed gives at that position.
	for _, bias := range []float64{0, 0.6} {
		for _, seed := range []int64{1, 42, 777, -5, 1 << 40} {
			tag := seed*31 + 7
			steps := []struct {
				name   string
				reseed []int64 // applied in order before the puts
				puts   int
				want   []UUID
			}{
				{"NewStore, no Reseed", nil, 4, streamUUIDs(seed, bias, 4)},
				{"Reseed between draws", []int64{tag}, 3, streamUUIDs(tag, bias, 3)},
				{"two Reseeds, no draw between", []int64{seed, tag + 1}, 3, streamUUIDs(tag+1, bias, 3)},
				{"Reseed to the same seed restarts the stream", []int64{tag + 1}, 2, streamUUIDs(tag+1, bias, 2)},
			}
			env, _ := newSeededEnv(t, nil, seed, bias)
			for _, st := range steps {
				for _, rs := range st.reseed {
					env.cs.Reseed(rs)
				}
				for i := 0; i < st.puts; i++ {
					if got := putUUID(t, env); got != st.want[i] {
						t.Fatalf("seed %d bias %v, %s: put %d has uuid %x, want %x", seed, bias, st.name, i, got, st.want[i])
					}
				}
			}
		}
	}
}

// streamUUIDs computes the first k UUIDs of the documented recipe from a
// newly built generator: per UUID one Float64 against the zero bias (only
// when a bias is set), then sixteen Intn(256).
func streamUUIDs(seed int64, bias float64, k int) []UUID {
	r := rand.New(rand.NewSource(seed))
	out := make([]UUID, k)
	for i := range out {
		if bias > 0 && r.Float64() < bias {
			continue
		}
		for j := range out[i] {
			out[i][j] = byte(r.Intn(256))
		}
	}
	return out
}

// putUUID stores one chunk and returns the UUID its frame carries.
func putUUID(t *testing.T, env *testEnv) UUID {
	t.Helper()
	loc, _, release, err := env.cs.Put(TagData, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	release()
	buf := make([]byte, loc.Length)
	if err := env.em.Read(loc.Extent, loc.Offset, loc.Length, buf); err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	return h.UUID
}

// TestReseedAllocatesNothing is the cost side of lazy seeding: recording a
// seed allocates nothing, and a steady-state re-seed plus put re-seeds the
// store's one generator in place instead of building a 4.9 KB source.
func TestReseedAllocatesNothing(t *testing.T) {
	env, _ := newEnv(t, nil)
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; env.cs.Reseed(seed) }); n != 0 {
		t.Fatalf("Reseed allocates %v objects per call, want 0", n)
	}
	putUUID(t, env) // materialise the generator once
	const iters = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		seed++
		env.cs.Reseed(seed)
		_, _, release, err := env.cs.Put(TagData, "k", []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	runtime.ReadMemStats(&after)
	const sourceBytes = 607 * 8 // math/rand's lagged-Fibonacci state
	per := (after.TotalAlloc - before.TotalAlloc) / iters
	t.Logf("Reseed + Put: %d B per iteration", per)
	if per >= sourceBytes {
		t.Fatalf("Reseed + Put allocates %d B per iteration: a generator (%d B) is being built per re-seed", per, sourceBytes)
	}
}

func TestUUIDZeroBias(t *testing.T) {
	d, _ := disk.New(disk.DefaultConfig())
	sched := dep.NewScheduler(d, dep.Options{})
	em, _ := extent.NewManager(sched, extent.Config{}, nil)
	cs := NewStore(em, Config{UUIDZeroBias: 1.0}, 1, nil)
	u := cs.newUUID()
	if u != (UUID{}) {
		t.Fatalf("full bias should produce zero uuid: %v", u)
	}
	cs2 := NewStore(em, Config{UUIDZeroBias: 0}, 1, nil)
	zero := 0
	for i := 0; i < 32; i++ {
		if cs2.newUUID() == (UUID{}) {
			zero++
		}
	}
	if zero > 0 {
		t.Fatal("unbiased generator produced zero uuid (astronomically unlikely)")
	}
}

func TestReclaimSurvivesCrashOrdering(t *testing.T) {
	// After reclaim + crash, either the old state or the new state must be
	// recovered — never a dangling index. (The full property is checked by
	// the conformance harness; this is the narrow unit version.)
	env, res := newEnv(t, nil)
	loc, _, rel, _ := env.cs.Put(TagData, "k", []byte("vv"))
	res.live[loc] = "k"
	rel()
	env.pump(t)
	victim := loc.Extent
	for env.cs.ActiveExtent() == int(victim) {
		l2, _, rel2, _ := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{1}, 400))
		res.live[l2] = "fill"
		rel2()
	}
	env.pump(t)
	if err := env.cs.Reclaim(victim); err != nil {
		t.Fatal(err)
	}
	env.sched.Crash(rand.New(rand.NewSource(5)))
	// The quiesce inside Reclaim must have made the evacuation durable
	// before the reset could take effect.
	var newLoc Locator
	for l, k := range res.live {
		if k == "k" {
			newLoc = l
		}
	}
	buf := make([]byte, newLoc.Length)
	s2 := dep.NewScheduler(env.sched.Disk(), dep.Options{})
	m2, err := extent.Recover(s2, extent.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Read(newLoc.Extent, newLoc.Offset, newLoc.Length, buf); err != nil {
		t.Fatalf("evacuated chunk unreadable after crash: %v", err)
	}
	if _, _, payload, err := DecodeFrame(buf); err != nil || !bytes.Equal(payload, []byte("vv")) {
		t.Fatalf("evacuated chunk corrupt: %v", err)
	}
}

// --- frame trailer edge cases and single-bit rot (scrub subsystem tests) ---

// TestFrameTrailerTable is the table-driven trailer property: a frame whose
// buffer stops anywhere short of the claimed length is ErrTruncated, trailing
// garbage past the frame is ignored, and damage inside the trailer maps to
// the specific sentinel for what broke (UUID echo vs CRC).
func TestFrameTrailerTable(t *testing.T) {
	uuid := UUID{0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	frame, err := EncodeFrame(TagData, "trailer-key", bytes.Repeat([]byte{0x5C}, 33), uuid)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error // nil means the decode must succeed
	}{
		{"truncated-last-byte", func(f []byte) []byte { return f[:len(f)-1] }, ErrTruncated},
		{"truncated-mid-uuid", func(f []byte) []byte { return f[:len(f)-uuidLen/2] }, ErrTruncated},
		{"truncated-whole-trailer", func(f []byte) []byte { return f[:len(f)-trailerFixedLen] }, ErrTruncated},
		{"truncated-mid-crc", func(f []byte) []byte { return f[:len(f)-uuidLen-2] }, ErrTruncated},
		{"oversized-trailing-garbage", func(f []byte) []byte {
			return append(append([]byte(nil), f...), 0xDE, 0xAD, 0xBE, 0xEF)
		}, nil},
		{"oversized-page-padding", func(f []byte) []byte {
			return append(append([]byte(nil), f...), make([]byte, 4096)...)
		}, nil},
		{"trailer-uuid-flipped", func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[len(out)-1] ^= 0xFF
			return out
		}, ErrUUIDMissing},
		{"crc-byte-flipped", func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[len(out)-trailerFixedLen] ^= 0xFF
			return out
		}, ErrBadCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, key, payload, err := DecodeFrame(tc.mutate(frame))
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if key != "trailer-key" || len(payload) != 33 {
					t.Fatalf("decode mismatch: %q %d bytes", key, len(payload))
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestFrameSingleBitFlipIsBadCRC: one flipped bit anywhere in the key or
// payload region must surface as exactly ErrBadCRC — the CRC is the layer
// that catches body rot, and it must catch the minimal possible rot.
func TestFrameSingleBitFlipIsBadCRC(t *testing.T) {
	uuid := UUID{7}
	payload := bytes.Repeat([]byte{0x31}, 40)
	frame, err := EncodeFrame(TagData, "bit-key", payload, uuid)
	if err != nil {
		t.Fatal(err)
	}
	bodyStart := headerFixedLen // key then payload
	bodyEnd := len(frame) - trailerFixedLen
	for pos := bodyStart; pos < bodyEnd; pos++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), frame...)
			bad[pos] ^= 1 << bit
			_, _, _, err := DecodeFrame(bad)
			if !errors.Is(err, ErrBadCRC) {
				t.Fatalf("flip byte %d bit %d: got %v, want ErrBadCRC", pos, bit, err)
			}
		}
	}
}

// --- quarantine path ---

func TestQuarantineRefusesReads(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, _, release, err := env.cs.Put(TagData, "qk", []byte("still fine bytes"))
	if err != nil {
		t.Fatal(err)
	}
	res.live[loc] = "qk"
	release()
	// Warm the cache: quarantine must not serve the cached copy either.
	if _, _, err := env.cs.GetWithKey(loc); err != nil {
		t.Fatal(err)
	}
	env.cs.Quarantine(loc)
	if !env.cs.IsQuarantined(loc) || env.cs.QuarantineCount() != 1 {
		t.Fatal("quarantine not recorded")
	}
	if _, _, err := env.cs.GetWithKey(loc); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined read: %v", err)
	}
	if _, err := env.cs.Get(loc); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined Get: %v", err)
	}
	// Idempotent: re-quarantining the same locator counts once.
	env.cs.Quarantine(loc)
	if env.cs.QuarantineCount() != 1 || env.cs.Stats().Quarantined != 1 {
		t.Fatalf("double quarantine: count=%d stats=%+v", env.cs.QuarantineCount(), env.cs.Stats())
	}
	// Other locators stay readable.
	loc2, _, rel2, err := env.cs.Put(TagData, "ok", []byte("unaffected"))
	if err != nil {
		t.Fatal(err)
	}
	res.live[loc2] = "ok"
	rel2()
	if _, _, err := env.cs.GetWithKey(loc2); err != nil {
		t.Fatalf("unquarantined read: %v", err)
	}
}

func TestQuarantineLiftedByExtentReset(t *testing.T) {
	env, res := newEnv(t, nil)
	loc, _, release, err := env.cs.Put(TagData, "gone", []byte("garbage soon"))
	if err != nil {
		t.Fatal(err)
	}
	release()
	env.cs.Quarantine(loc)
	// Roll the active write extent forward so loc's extent can be reclaimed.
	for {
		fl, _, frel, err := env.cs.Put(TagData, "fill", bytes.Repeat([]byte{2}, 400))
		if err != nil {
			t.Fatal(err)
		}
		res.live[fl] = "fill"
		frel()
		if fl.Extent != loc.Extent {
			break
		}
	}
	// The chunk is garbage (not in the resolver's live set), so reclaiming
	// its extent resets it; the reset lifts the quarantine — the locator
	// names fresh space now, not the rotted frame.
	env.pump(t)
	if err := env.cs.Reclaim(loc.Extent); err != nil {
		t.Fatal(err)
	}
	if env.cs.IsQuarantined(loc) {
		t.Fatal("quarantine survived extent reset")
	}
	_ = res
}
