package obs

import (
	"reflect"
	"testing"

	"shardstore/internal/vsync"
)

// TestProbeHitAndCount: with probes on, Hit counts per name.
func TestProbeHitAndCount(t *testing.T) {
	o := New(nil).WithProbes()
	o.Hit("a")
	o.Hit("a")
	o.Hit("b")
	snap := o.Snapshot().Probes
	if want := (Probes{"a": 2, "b": 1}); !reflect.DeepEqual(snap, want) {
		t.Fatalf("probes = %v, want %v", snap, want)
	}
	if snap["c"] != 0 {
		t.Fatalf("unhit probe c = %d", snap["c"])
	}
}

// TestProbeSnapshotIsCopy: Snapshot hands out a copy of the probe table, so
// later hits do not show through an earlier snapshot.
func TestProbeSnapshotIsCopy(t *testing.T) {
	o := New(nil).WithProbes()
	o.Hit("a")
	o.Hit("a")
	snap := o.Snapshot().Probes
	o.Hit("a")
	if snap["a"] != 2 {
		t.Fatal("snapshot should be a copy")
	}
	if got := o.Snapshot().Probes["a"]; got != 3 {
		t.Fatalf("a = %d after a third hit, want 3", got)
	}
}

// TestProbeNilObsDiscards: Hit on a nil Obs must not panic and records
// nothing.
func TestProbeNilObsDiscards(t *testing.T) {
	var o *Obs
	o.Hit("x")
	if s := o.Snapshot(); s.Probes != nil {
		t.Fatalf("nil obs recorded probes: %v", s.Probes)
	}
}

// TestProbesOffDiscards: an Obs built without WithProbes keeps no probe
// table, so Hit is a no-op and the snapshot carries none; turning probes on
// needs no further setup.
func TestProbesOffDiscards(t *testing.T) {
	off := New(nil)
	off.Hit("a")
	if s := off.Snapshot(); s.Probes != nil {
		t.Fatalf("probes off, snapshot carries %v", s.Probes)
	}
	on := New(nil).WithProbes()
	on.Hit("x")
	if got := on.Snapshot().Probes["x"]; got != 1 {
		t.Fatalf("x = %d on a fresh table, want 1", got)
	}
}

// TestProbeConcurrentHits: concurrent hits on one probe are all counted.
func TestProbeConcurrentHits(t *testing.T) {
	o := New(nil).WithProbes()
	const workers, hits = 8, 1000
	handles := make([]vsync.Handle, 0, workers)
	for w := 0; w < workers; w++ {
		handles = append(handles, vsync.Go("hit", func() {
			for j := 0; j < hits; j++ {
				o.Hit("contended")
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	if got := o.Snapshot().Probes["contended"]; got != workers*hits {
		t.Fatalf("lost hits: %d, want %d", got, workers*hits)
	}
}

// TestProbesMissing: Missing names the wanted probes never hit, sorted.
func TestProbesMissing(t *testing.T) {
	o := New(nil).WithProbes()
	o.Hit("reached")
	missing := o.Snapshot().Probes.Missing([]string{"reached", "blind-spot-2", "blind-spot-1"})
	if want := []string{"blind-spot-1", "blind-spot-2"}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	if m := (Probes(nil)).Missing([]string{"x"}); len(m) != 1 {
		t.Fatalf("nil table: missing = %v", m)
	}
}

// TestProbesReportGolden pins the report bytes: sorted names, one
// "%-48s %d" line each, filtered by prefix. The harness fingerprint hashes
// this text, so a format change would move it.
func TestProbesReportGolden(t *testing.T) {
	ps := Probes{"disk.crash": 1, "cache.miss": 12, "cache.hit": 3}
	const all = "cache.hit                                        3\n" +
		"cache.miss                                       12\n" +
		"disk.crash                                       1\n"
	if got := ps.Report(""); got != all {
		t.Fatalf("report:\n%q\nwant\n%q", got, all)
	}
	const cache = "cache.hit                                        3\n" +
		"cache.miss                                       12\n"
	if got := ps.Report("cache."); got != cache {
		t.Fatalf("prefix report:\n%q\nwant\n%q", got, cache)
	}
	if got := (Probes(nil)).Report(""); got != "" {
		t.Fatalf("empty report = %q", got)
	}
}

// TestProbesMerge: Snapshot.Merge folds probe tables by addition without
// touching the source, and merging an empty table changes nothing.
func TestProbesMerge(t *testing.T) {
	a, b := New(nil).WithProbes(), New(nil).WithProbes()
	a.Hit("shared")
	a.Hit("only-a")
	b.Hit("shared")
	b.Hit("shared")
	b.Hit("only-b")
	var s Snapshot
	s.Merge(a.Snapshot())
	src := b.Snapshot()
	s.Merge(src)
	s.Merge(New(nil).Snapshot())
	if want := (Probes{"shared": 3, "only-a": 1, "only-b": 1}); !reflect.DeepEqual(s.Probes, want) {
		t.Fatalf("merged probes = %v, want %v", s.Probes, want)
	}
	if want := (Probes{"shared": 2, "only-b": 1}); !reflect.DeepEqual(src.Probes, want) {
		t.Fatalf("merge mutated its source: %v", src.Probes)
	}
	var none Probes
	none.Merge(nil)
	if none != nil {
		t.Fatalf("merging nothing allocated a table: %v", none)
	}
}

// TestProbeHammer is the concurrency check for the probe table: workers hit
// overlapping probes while readers take snapshots and render reports — the
// access pattern of a harness reading a node mid-run. Run under -race
// (scripts/ci.sh does); the final counts must be exact.
func TestProbeHammer(t *testing.T) {
	o := New(nil).WithProbes()
	const workers, hitsPerProbe = 8, 500
	probes := []string{"store.put", "store.get", "disk.crash", "lsm.flush", "chunk.reclaim"}
	handles := make([]vsync.Handle, 0, workers+2)
	for w := 0; w < workers; w++ {
		handles = append(handles, vsync.Go("hit", func() {
			for j := 0; j < hitsPerProbe; j++ {
				for _, p := range probes {
					o.Hit(p)
				}
			}
		}))
	}
	for r := 0; r < 2; r++ {
		handles = append(handles, vsync.Go("read", func() {
			for j := 0; j < 200; j++ {
				ps := o.Snapshot().Probes
				_ = ps.Report("store.")
				_ = ps.Missing(probes)
			}
		}))
	}
	for _, h := range handles {
		h.Join()
	}
	got := o.Snapshot().Probes
	for _, p := range probes {
		if got[p] != workers*hitsPerProbe {
			t.Fatalf("probe %s: %d hits, want %d", p, got[p], workers*hitsPerProbe)
		}
	}
}
