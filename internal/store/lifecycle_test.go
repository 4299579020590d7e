package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shardstore/internal/chunk"
	"shardstore/internal/disk"
	"shardstore/internal/faults"
)

// --- additional lifecycle, control-plane, and property tests ---

func TestEntryEncodingRoundTrip(t *testing.T) {
	locs := []chunk.Locator{
		{Extent: 1, Offset: 0, Length: 100},
		{Extent: 30, Offset: 1920, Length: 7},
	}
	buf := encodeEntry(locs)
	got, err := DecodeEntry(buf)
	if err != nil || len(got) != 2 || got[0] != locs[0] || got[1] != locs[1] {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

func TestEntryDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeEntry(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryDecodeRejectsTrailingBytes(t *testing.T) {
	buf := append(encodeEntry([]chunk.Locator{{Extent: 1}}), 0xFF)
	if _, err := DecodeEntry(buf); !errors.Is(err, ErrCorruptEntry) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDeleteAbsentShardIdempotent(t *testing.T) {
	s, _ := mustOpen(t, testConfig(20))
	if _, err := s.Delete("never-existed"); err != nil {
		t.Fatalf("delete absent: %v", err)
	}
	if _, err := s.Delete("never-existed"); err != nil {
		t.Fatalf("delete twice: %v", err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	s, _ := mustOpen(t, testConfig(21))
	if _, err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("empty")
	if err != nil || v == nil || len(v) != 0 {
		t.Fatalf("empty value: %v %v", v, err)
	}
}

func TestOutOfServiceRejectsEverything(t *testing.T) {
	s, _ := mustOpen(t, testConfig(22))
	if err := s.RemoveFromService(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", []byte{1}); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("put: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("get: %v", err)
	}
	if _, err := s.Delete("k"); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := s.List("", "", 0); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("list: %v", err)
	}
	if errs := s.DeleteBatch([]string{"k"}); !errors.Is(errs[0], ErrOutOfService) {
		t.Fatalf("batch delete: %v", errs[0])
	}
	// RemoveFromService twice: second is rejected.
	if err := s.RemoveFromService(); !errors.Is(err, ErrOutOfService) {
		t.Fatalf("second remove: %v", err)
	}
}

func TestReturnToServiceIdempotentWhileInService(t *testing.T) {
	s, _ := mustOpen(t, testConfig(23))
	ns, err := s.ReturnToService()
	if err != nil || ns != s {
		t.Fatalf("return while in service: %v %v", ns == s, err)
	}
}

func TestCatalogSurvivesReboot(t *testing.T) {
	cfg := testConfig(24)
	s, d := mustOpen(t, cfg)
	for _, id := range []string{"z", "a", "m"} {
		if _, err := s.Put(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := s2.List("", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "m" || ids[2] != "z" {
		t.Fatalf("listing after reboot: %v", ids)
	}
}

func TestGetRetriesThroughIndexOnStaleLocator(t *testing.T) {
	// Delete + reclaim + rewrite recycles locators; a fresh Get must always
	// resolve through the current index state.
	cfg := testConfig(25)
	s, _ := mustOpen(t, cfg)
	if _, err := s.Put("victim", bytes.Repeat([]byte{1}, 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Put(fmt.Sprintf("fill%02d", i), bytes.Repeat([]byte{byte(i)}, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if ran, err := s.ReclaimAuto(); err != nil || !ran {
			break
		}
		_ = s.Pump()
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted shard after churn: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Get(fmt.Sprintf("fill%02d", i)); err != nil {
			t.Fatalf("fill%02d lost: %v", i, err)
		}
	}
}

func TestBug13RacyListIsSequentiallyInvisible(t *testing.T) {
	// The racy listing is only wrong under concurrency; sequentially it must
	// behave (which is why the paper needed model checking to catch it).
	cfg := testConfig(26)
	cfg.Bugs.Enable(faults.Bug13ListRemoveRace)
	s, _ := mustOpen(t, cfg)
	for _, id := range []string{"a", "b", "c"} {
		_, _ = s.Put(id, []byte(id))
	}
	ids, _, err := s.List("", "", 0)
	if err != nil || fmt.Sprint(ids) != "[a b c]" {
		t.Fatalf("sequential racy list: %v %v", ids, err)
	}
	ids, more, err := s.List("a\x00", "", 1)
	if err != nil || fmt.Sprint(ids) != "[b]" || !more {
		t.Fatalf("sequential racy page: %v more=%v %v", ids, more, err)
	}
}

func TestBug16PositionalRemoveSequentiallyCorrect(t *testing.T) {
	cfg := testConfig(27)
	cfg.Bugs.Enable(faults.Bug16BulkCreateRemoveRace)
	s, _ := mustOpen(t, cfg)
	_, _ = s.Put("a", []byte{1})
	_, _ = s.Put("b", []byte{2})
	if errs := s.DeleteBatch([]string{"a", "absent"}); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("a not removed")
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatal("b removed by mistake (sequentially!)")
	}
}

func TestSplitValueProperty(t *testing.T) {
	f := func(data []byte, maxRaw uint8) bool {
		max := int(maxRaw%64) + 1
		pieces := splitValue(data, max)
		var joined []byte
		for _, p := range pieces {
			if len(p) > max {
				return false
			}
			joined = append(joined, p...)
		}
		if len(data) == 0 {
			return len(pieces) == 1 && len(pieces[0]) == 0
		}
		return bytes.Equal(joined, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesSpanningManyChunksSurviveCrashCycle(t *testing.T) {
	cfg := testConfig(28)
	s, d := mustOpen(t, cfg)
	val := make([]byte, 1500) // many chunks at default max payload
	for i := range val {
		val[i] = byte(i * 7)
	}
	dp, err := s.Put("wide", val)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pump(); err != nil {
		t.Fatal(err)
	}
	if !dp.IsPersistent() {
		t.Fatal("not persistent")
	}
	s.Crash(rand.New(rand.NewSource(3)))
	s2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("wide")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("wide value after crash: len=%d err=%v", len(got), err)
	}
}

func TestReseedMakesStoresIdentical(t *testing.T) {
	run := func(seed int64) ([]string, *disk.Disk) {
		cfg := testConfig(29)
		s, d := mustOpen(t, cfg)
		s.Reseed(seed)
		for i := 0; i < 5; i++ {
			_, _ = s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100))
		}
		if err := s.Pump(); err != nil {
			t.Fatal(err)
		}
		keys, _, _ := s.List("", "", 0)
		return keys, d
	}
	a, da := run(555)
	b, db := run(555)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("diverged")
	}
	// The seed reaches the bytes on disk (chunk UUIDs), so equal seeds give
	// equal images and a different seed a different one.
	if !disk.DurableEqual(da, db) {
		t.Fatal("durable images differ after identical reseeds")
	}
	if _, dc := run(556); disk.DurableEqual(da, dc) {
		t.Fatal("a different seed left the same durable image: Reseed does not reach the chunk UUIDs")
	}

	// Recording the seed is all Reseed does.
	s, _ := mustOpen(t, testConfig(29))
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; s.Reseed(seed) }); n != 0 {
		t.Fatalf("Reseed allocates %v objects per call, want 0", n)
	}
}

func TestManyCrashRecoverCyclesWithReclaim(t *testing.T) {
	cfg := testConfig(30)
	s, d := mustOpen(t, cfg)
	rng := rand.New(rand.NewSource(77))
	durable := map[string][]byte{}
	for round := 0; round < 12; round++ {
		k := fmt.Sprintf("r%02d", round)
		v := bytes.Repeat([]byte{byte(round + 1)}, 60+round*13)
		if _, err := s.Put(k, v); err != nil {
			t.Fatalf("round %d put: %v", round, err)
		}
		if round%3 == 0 {
			if err := s.Pump(); err != nil {
				t.Fatalf("round %d pump: %v", round, err)
			}
			durable[k] = v
			_, _ = s.ReclaimAuto()
		}
		if round%4 == 1 {
			s.Crash(rng)
			ns, err := Open(d, cfg)
			if err != nil {
				t.Fatalf("round %d recover: %v", round, err)
			}
			s = ns
			for dk, dv := range durable {
				got, err := s.Get(dk)
				if err != nil || !bytes.Equal(got, dv) {
					t.Fatalf("round %d: durable %s lost: %v", round, dk, err)
				}
			}
		}
	}
}
