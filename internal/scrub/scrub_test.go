package scrub_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"shardstore/internal/chunk"
	"shardstore/internal/dep"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
	"shardstore/internal/scrub"
	"shardstore/internal/store"
)

// --- fake host: full control over frame bytes for unit-testing the scrubber
// in isolation (the real store integration lives further down) ---

type fakeHost struct {
	entries     map[string][][]chunk.Locator
	frames      map[chunk.Locator][]byte
	quarantined map[chunk.Locator]bool
	readErr     map[chunk.Locator]error
	swapRefuse  bool
	nextExtent  disk.ExtentID
	repairs     []fakeRepair
}

type fakeRepair struct {
	key     string
	payload []byte
	avoid   []disk.ExtentID
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		entries:     make(map[string][][]chunk.Locator),
		frames:      make(map[chunk.Locator][]byte),
		quarantined: make(map[chunk.Locator]bool),
		readErr:     make(map[chunk.Locator]error),
		nextExtent:  100,
	}
}

// addShard installs a shard with the given replica payloads for one piece and
// returns the group. Every replica starts as a valid frame for (key, payload).
func (h *fakeHost) addShard(t *testing.T, key string, payload []byte, replicas int) []chunk.Locator {
	t.Helper()
	group := make([]chunk.Locator, replicas)
	for i := range group {
		group[i] = h.addFrame(t, key, payload)
	}
	h.entries[key] = [][]chunk.Locator{append([]chunk.Locator(nil), group...)}
	return group
}

func (h *fakeHost) addFrame(t *testing.T, key string, payload []byte) chunk.Locator {
	t.Helper()
	var uuid chunk.UUID
	uuid[0] = byte(h.nextExtent)
	frame, err := chunk.EncodeFrame(chunk.TagData, key, payload, uuid)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	loc := chunk.Locator{Extent: h.nextExtent, Offset: 0, Length: len(frame)}
	h.nextExtent++
	h.frames[loc] = frame
	return loc
}

func (h *fakeHost) LiveKeys() ([]string, error) {
	out := make([]string, 0, len(h.entries))
	for k := range h.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func (h *fakeHost) ReadEntry(key string) ([][]chunk.Locator, error) {
	groups, ok := h.entries[key]
	if !ok {
		return nil, errors.New("fake: no such key")
	}
	return groups, nil
}

func (h *fakeHost) ReadFrame(loc chunk.Locator) ([]byte, error) {
	if err := h.readErr[loc]; err != nil {
		return nil, err
	}
	f, ok := h.frames[loc]
	if !ok {
		return nil, errors.New("fake: no frame")
	}
	return append([]byte(nil), f...), nil
}

func (h *fakeHost) WriteRepair(key string, payload []byte, avoid []disk.ExtentID) (chunk.Locator, *dep.Dependency, func(), error) {
	h.repairs = append(h.repairs, fakeRepair{
		key:     key,
		payload: append([]byte(nil), payload...),
		avoid:   append([]disk.ExtentID(nil), avoid...),
	})
	var uuid chunk.UUID
	uuid[0] = byte(h.nextExtent)
	frame, err := chunk.EncodeFrame(chunk.TagData, key, payload, uuid)
	if err != nil {
		return chunk.Locator{}, nil, nil, err
	}
	loc := chunk.Locator{Extent: h.nextExtent, Offset: 0, Length: len(frame)}
	h.nextExtent++
	h.frames[loc] = frame
	return loc, dep.Resolved(), func() {}, nil
}

func (h *fakeHost) SwapReplica(key string, old, newLoc chunk.Locator, d *dep.Dependency) (bool, error) {
	if h.swapRefuse {
		return false, nil
	}
	groups, ok := h.entries[key]
	if !ok {
		return false, nil
	}
	for gi := range groups {
		for ri := range groups[gi] {
			if groups[gi][ri] == old {
				groups[gi][ri] = newLoc
				return true, nil
			}
		}
	}
	return false, nil
}

func (h *fakeHost) Quarantine(loc chunk.Locator) { h.quarantined[loc] = true }

var _ scrub.Host = (*fakeHost)(nil)

// rotPayload flips one payload byte inside the stored frame for loc, leaving
// the header intact (the CRC no longer matches).
func (h *fakeHost) rotPayload(t *testing.T, loc chunk.Locator) {
	t.Helper()
	f := h.frames[loc]
	hdr, err := chunk.ParseHeader(f)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if hdr.PayloadLen == 0 {
		t.Fatal("rotPayload needs a non-empty payload")
	}
	const trailerLen = 4 + 16      // CRC32 + trailing UUID
	f[len(f)-trailerLen-1] ^= 0xff // last payload byte
}

func newScrubber(h scrub.Host, bugs *faults.Set) *scrub.Scrubber {
	if bugs == nil {
		bugs = faults.NewSet()
	}
	return scrub.New(h, scrub.Config{}, bugs)
}

func TestRoundRepairsFromSurvivor(t *testing.T) {
	h := newFakeHost()
	payload := []byte("the quick brown fox")
	group := h.addShard(t, "k00", payload, 2)
	h.rotPayload(t, group[0])

	s := newScrubber(h, nil)
	res, err := s.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if res.BadReplicas != 1 || res.Repaired != 1 || res.Irreparable != 0 {
		t.Fatalf("Round = %+v, want 1 bad, 1 repaired, 0 irreparable", res)
	}
	if len(h.repairs) != 1 || !bytes.Equal(h.repairs[0].payload, payload) {
		t.Fatalf("repair wrote %q, want the survivor's payload %q", h.repairs[0].payload, payload)
	}
	// The healed copy avoided the survivor's extent and replaced the rotted
	// locator in the entry; the rotted locator is quarantined.
	if len(h.repairs[0].avoid) != 1 || h.repairs[0].avoid[0] != group[1].Extent {
		t.Fatalf("repair avoid = %v, want [%v]", h.repairs[0].avoid, group[1].Extent)
	}
	if !h.quarantined[group[0]] {
		t.Fatal("rotted locator not quarantined")
	}
	newGroup := h.entries["k00"][0]
	if newGroup[0] == group[0] {
		t.Fatal("entry still references the rotted locator")
	}
	if got := s.LostKeys(); len(got) != 0 {
		t.Fatalf("LostKeys = %v, want none", got)
	}
	// Every replica now verifies: a second round is clean.
	res, err = s.Round()
	if err != nil || res.BadReplicas != 0 {
		t.Fatalf("second Round = %+v, %v; want clean", res, err)
	}
	if st := s.Stats(); st.Rounds != 2 || st.Repaired != 1 {
		t.Fatalf("Stats = %+v, want 2 rounds, 1 repaired", st)
	}
}

func TestRoundReportsIrreparableLoss(t *testing.T) {
	h := newFakeHost()
	group := h.addShard(t, "k00", []byte("doomed"), 2)
	h.rotPayload(t, group[0])
	h.rotPayload(t, group[1])

	s := newScrubber(h, nil)
	res, err := s.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if res.Irreparable != 1 || res.Repaired != 0 {
		t.Fatalf("Round = %+v, want 1 irreparable, 0 repaired", res)
	}
	if len(h.repairs) != 0 {
		t.Fatalf("scrub wrote a repair from a rotted source: %+v", h.repairs)
	}
	if !h.quarantined[group[0]] || !h.quarantined[group[1]] {
		t.Fatal("rotted replicas not quarantined")
	}
	if got := s.LostKeys(); len(got) != 1 || got[0] != "k00" {
		t.Fatalf("LostKeys = %v, want [k00]", got)
	}
	// A rewrite of the shard (fresh entry, healthy frames) clears the verdict.
	h.addShard(t, "k00", []byte("rewritten"), 2)
	if _, err := s.Round(); err != nil {
		t.Fatalf("Round after rewrite: %v", err)
	}
	if got := s.LostKeys(); len(got) != 0 {
		t.Fatalf("LostKeys after rewrite = %v, want none", got)
	}
}

func TestLostClearedWhenShardDeleted(t *testing.T) {
	h := newFakeHost()
	group := h.addShard(t, "k00", []byte("gone"), 1)
	h.rotPayload(t, group[0])
	s := newScrubber(h, nil)
	if _, err := s.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if got := s.LostKeys(); len(got) != 1 {
		t.Fatalf("LostKeys = %v, want [k00]", got)
	}
	// Delete the shard: the next pass prunes the verdict — a loss report must
	// not outlive the shard it reported on.
	delete(h.entries, "k00")
	h.addShard(t, "k01", []byte("fine"), 1)
	if _, err := s.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if got := s.LostKeys(); len(got) != 0 {
		t.Fatalf("LostKeys = %v, want none after the shard was deleted", got)
	}
}

func TestIOErrorIsNotRot(t *testing.T) {
	h := newFakeHost()
	group := h.addShard(t, "k00", []byte("flaky"), 2)
	h.readErr[group[0]] = errors.New("injected IO error")

	s := newScrubber(h, nil)
	res, err := s.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	// An unreadable replica is the §4.4 environmental domain: neither a repair
	// target nor an irreparable verdict.
	if res.BadReplicas != 0 || res.Repaired != 0 || res.Irreparable != 0 {
		t.Fatalf("Round = %+v, want no rot verdicts for an IO error", res)
	}
	if len(h.repairs) != 0 || h.quarantined[group[0]] {
		t.Fatal("IO-erroring replica must not be repaired or quarantined")
	}
}

func TestSwapLostLeavesEntryAlone(t *testing.T) {
	h := newFakeHost()
	group := h.addShard(t, "k00", []byte("contended"), 2)
	h.rotPayload(t, group[0])
	h.swapRefuse = true // a concurrent put/delete/reclaim wins every CAS

	s := newScrubber(h, nil)
	res, err := s.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if res.Repaired != 0 {
		t.Fatalf("Round = %+v, want 0 repaired when the swap is lost", res)
	}
	if st := s.Stats(); st.SwapLost != 1 {
		t.Fatalf("Stats = %+v, want SwapLost 1", st)
	}
	// The rotted locator must NOT be quarantined: the entry was concurrently
	// replaced, and whatever it references now was never verified bad.
	if h.quarantined[group[0]] {
		t.Fatal("lost swap must not quarantine")
	}
}

func TestStepRateLimitAndCursor(t *testing.T) {
	h := newFakeHost()
	for i := 0; i < 5; i++ {
		h.addShard(t, fmt.Sprintf("k%02d", i), []byte("v"), 1)
	}
	s := scrub.New(h, scrub.Config{KeysPerStep: 2}, faults.NewSet())
	var scanned int
	wraps := []bool{false, false, true}
	for i, wantWrap := range wraps {
		res, wrapped, err := s.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		scanned += res.KeysScanned
		if wrapped != wantWrap {
			t.Fatalf("Step %d wrapped = %v, want %v", i, wrapped, wantWrap)
		}
	}
	if scanned != 6 { // 2+2+2: the last step wraps past the end into key 0
		t.Fatalf("scanned %d keys over 3 steps, want 6", scanned)
	}
	if st := s.Stats(); st.Rounds != 1 {
		t.Fatalf("Stats = %+v, want 1 completed round", st)
	}
}

func TestUnverifiedRepairFaultLaundersRot(t *testing.T) {
	h := newFakeHost()
	payload := []byte("authentic payload bytes")
	group := h.addShard(t, "k00", payload, 2)
	h.rotPayload(t, group[0]) // header survives, payload rots

	bugs := faults.NewSet(faults.FaultScrubRepairUnverified)
	s := newScrubber(h, bugs)
	if _, err := s.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if len(h.repairs) != 1 {
		t.Fatalf("got %d repairs, want 1", len(h.repairs))
	}
	// The seeded defect copies replica 0's payload without re-verifying the
	// frame: the repair launders the rotted bytes into a fresh, valid-CRC
	// frame instead of healing from the survivor.
	if bytes.Equal(h.repairs[0].payload, payload) {
		t.Fatal("buggy scrubber repaired from the verified survivor; the seeded defect did not fire")
	}
	// And the fixed scrubber, same setup, heals correctly.
	h2 := newFakeHost()
	g2 := h2.addShard(t, "k00", payload, 2)
	h2.rotPayload(t, g2[0])
	s2 := newScrubber(h2, nil)
	if _, err := s2.Round(); err != nil {
		t.Fatalf("Round: %v", err)
	}
	if len(h2.repairs) != 1 || !bytes.Equal(h2.repairs[0].payload, payload) {
		t.Fatalf("fixed scrubber repair = %+v, want the survivor's payload", h2.repairs)
	}
}

// --- integration: the real store stack (disk → chunk → index → scrub) ---

func newNode(t *testing.T, replicas int, bugs ...faults.Bug) (*store.Store, *disk.Disk) {
	t.Helper()
	set := faults.NewSet(bugs...)
	set.Enable(faults.FaultSilentCorruption)
	dcfg := disk.DefaultConfig()
	dcfg.Faults = set
	s, d, err := store.New(store.Config{
		Disk:     dcfg,
		Seed:     1,
		Bugs:     set,
		Replicas: replicas,
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return s, d
}

// settle makes every pending write durable and empties the disk write cache,
// so CorruptPage hits the bytes reads will actually observe.
func settle(t *testing.T, s *store.Store, d *disk.Disk) {
	t.Helper()
	if _, err := s.FlushIndex(); err != nil {
		t.Fatalf("FlushIndex: %v", err)
	}
	if _, err := s.FlushSuperblock(); err != nil {
		t.Fatalf("FlushSuperblock: %v", err)
	}
	if err := s.Scheduler().Pump(); err != nil {
		t.Fatalf("Pump: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func groupsOf(t *testing.T, s *store.Store, key string) [][]chunk.Locator {
	t.Helper()
	entry, err := s.Index().Get(key)
	if err != nil {
		t.Fatalf("Index.Get(%q): %v", key, err)
	}
	groups, err := store.DecodeEntryGroups(entry)
	if err != nil {
		t.Fatalf("DecodeEntryGroups: %v", err)
	}
	return groups
}

func corruptReplica(t *testing.T, d *disk.Disk, loc chunk.Locator) {
	t.Helper()
	page := loc.Offset / d.Config().PageSize
	if !d.CorruptPage(loc.Extent, page, disk.RotZero, 1) {
		t.Fatalf("CorruptPage(%v, page %d) refused", loc, page)
	}
}

func TestStoreScrubRepairsRottedReplica(t *testing.T) {
	s, d := newNode(t, 2)
	value := []byte("replicated shard value")
	if _, err := s.Put("shard-a", value); err != nil {
		t.Fatalf("Put: %v", err)
	}
	settle(t, s, d)

	groups := groupsOf(t, s, "shard-a")
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("entry groups = %v, want 1 piece × 2 replicas", groups)
	}
	if groups[0][0].Extent == groups[0][1].Extent {
		t.Fatalf("replicas share extent %v; replica spreading failed", groups[0][0].Extent)
	}
	rotted := groups[0][0]
	corruptReplica(t, d, rotted)

	res, err := s.ScrubRound()
	if err != nil {
		t.Fatalf("ScrubRound: %v", err)
	}
	if res.BadReplicas != 1 || res.Repaired != 1 || res.Irreparable != 0 {
		t.Fatalf("ScrubRound = %+v, want 1 bad / 1 repaired / 0 irreparable", res)
	}
	if got := s.Scrubber().LostKeys(); len(got) != 0 {
		t.Fatalf("LostKeys = %v, want none after repair", got)
	}
	if !s.Chunks().IsQuarantined(rotted) {
		t.Fatal("rotted locator not quarantined after repair")
	}
	// Reads must survive with caches dropped: only the healed on-disk state.
	s.DrainCache()
	settle(t, s, d)
	got, err := s.Get("shard-a")
	if err != nil {
		t.Fatalf("Get after repair: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Fatalf("Get after repair = %q, want %q", got, value)
	}
	// The entry no longer references the rotted locator.
	for _, g := range groupsOf(t, s, "shard-a") {
		for _, loc := range g {
			if loc == rotted {
				t.Fatal("entry still references the rotted locator")
			}
		}
	}
}

func TestStoreScrubReportsLossWhenAllReplicasRot(t *testing.T) {
	s, d := newNode(t, 2)
	if _, err := s.Put("shard-a", []byte("all copies doomed")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	settle(t, s, d)
	for _, loc := range groupsOf(t, s, "shard-a")[0] {
		corruptReplica(t, d, loc)
	}
	s.DrainCache()

	res, err := s.ScrubRound()
	if err != nil {
		t.Fatalf("ScrubRound: %v", err)
	}
	if res.Irreparable != 1 || res.Repaired != 0 {
		t.Fatalf("ScrubRound = %+v, want 1 irreparable / 0 repaired", res)
	}
	if got := s.Scrubber().LostKeys(); len(got) != 1 || got[0] != "shard-a" {
		t.Fatalf("LostKeys = %v, want [shard-a]", got)
	}
	// The loss is reported, never silently served: the read fails.
	if _, err := s.Get("shard-a"); err == nil {
		t.Fatal("Get of an all-replicas-rotted shard succeeded")
	}
	// Overwriting the shard heals it and clears the verdict.
	if _, err := s.Put("shard-a", []byte("fresh value")); err != nil {
		t.Fatalf("Put over lost shard: %v", err)
	}
	settle(t, s, d)
	if _, err := s.ScrubRound(); err != nil {
		t.Fatalf("ScrubRound: %v", err)
	}
	if got := s.Scrubber().LostKeys(); len(got) != 0 {
		t.Fatalf("LostKeys after overwrite = %v, want none", got)
	}
	got, err := s.Get("shard-a")
	if err != nil || !bytes.Equal(got, []byte("fresh value")) {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}
}

func TestCorruptPageInertWithoutFaultSwitch(t *testing.T) {
	dcfg := disk.DefaultConfig() // no Faults set: clean runs stay byte-identical
	d, err := disk.New(dcfg)
	if err != nil {
		t.Fatalf("disk.New: %v", err)
	}
	if d.CorruptPage(1, 0, disk.RotZero, 1) {
		t.Fatal("CorruptPage armed without FaultSilentCorruption")
	}
	if st := d.Stats(); st.SilentRots != 0 {
		t.Fatalf("SilentRots = %d, want 0", st.SilentRots)
	}
}
