package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"shardstore/internal/vsync"
)

// TestHistogramBucketBoundaries pins the bucket mapping at the exact powers
// of two: v = 2^k is the first value of bucket k+1, v = 2^k - 1 the last of
// bucket k.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1 << 20, 21},
		{1<<20 - 1, 20},
		{math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		h := &Histogram{}
		h.Observe(c.v)
		s := h.Snapshot()
		if s.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d): bucket %d count %d, want 1 (buckets %v)", c.v, c.bucket, s.Buckets[c.bucket], s.Buckets)
		}
		if s.Min != c.v && c.v != math.MaxUint64 {
			t.Errorf("Observe(%d): min %d", c.v, s.Min)
		}
		if s.Max != c.v {
			t.Errorf("Observe(%d): max %d", c.v, s.Max)
		}
	}
	// Bucket upper bounds line up with the mapping: the largest value of
	// bucket i maps to i, and upper+1 maps to i+1.
	for i := 1; i < 63; i++ {
		ub := BucketUpper(i)
		if bucketOf(ub) != i || bucketOf(ub+1) != i+1 {
			t.Fatalf("bucket %d upper bound %d misaligned", i, ub)
		}
	}
}

// TestHistogramQuantiles checks the quantile estimate returns the containing
// bucket's upper bound, clamped to the observed max.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations (value 3, bucket 2), 10 slow (value 1000, bucket 10).
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := s.Quantile(0.90); got != 3 {
		t.Errorf("p90 = %d, want 3 (rank 90 is the last fast observation)", got)
	}
	// p99 lands among the slow observations; the estimate is the bucket upper
	// bound clamped to the true max.
	if got := s.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000 (bucket upper clamped to max)", got)
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	// All-zero observations: every quantile is 0.
	z := &Histogram{}
	z.Observe(0)
	z.Observe(0)
	if got := z.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("all-zero p99 = %d, want 0", got)
	}
}

// TestHistogramMergeAssociativity: merging per-shard snapshots in any
// grouping yields the identical host view — the property the rpc metrics op
// relies on when folding per-disk registries together.
func TestHistogramMergeAssociativity(t *testing.T) {
	mk := func(vals ...uint64) HistogramSnapshot {
		h := &Histogram{}
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a := mk(1, 5, 9)
	b := mk(100, 3)
	c := mk(0, 0, 1<<30)

	// (a+b)+c
	left := HistogramSnapshot{}
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)
	// a+(b+c)
	bc := HistogramSnapshot{}
	bc.Merge(b)
	bc.Merge(c)
	right := HistogramSnapshot{}
	right.Merge(a)
	right.Merge(bc)
	// direct observation of everything
	all := mk(1, 5, 9, 100, 3, 0, 0, 1<<30)

	for _, got := range []HistogramSnapshot{left, right} {
		if fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("merge grouping diverged:\n got %+v\nwant %+v", got, all)
		}
	}
	// Merging an empty snapshot is the identity.
	id := HistogramSnapshot{}
	id.Merge(all)
	id.Merge(HistogramSnapshot{})
	if fmt.Sprint(id) != fmt.Sprint(all) {
		t.Fatalf("empty merge not identity: %+v vs %+v", id, all)
	}
}

// TestSnapshotMerge covers the registry-level merge: counters add, gauges
// add, histograms fold.
func TestSnapshotMerge(t *testing.T) {
	r1 := NewRegistry(nil)
	r1.Counter("ops").Add(3)
	r1.Gauge("len").Set(7)
	r1.Histogram("lat").Observe(4)
	r2 := NewRegistry(nil)
	r2.Counter("ops").Add(2)
	r2.Gauge("len").Set(1)
	r2.Histogram("lat").Observe(16)

	s := r1.Snapshot()
	s.Merge(r2.Snapshot())
	if s.Counters["ops"] != 5 {
		t.Errorf("merged counter = %d, want 5", s.Counters["ops"])
	}
	if s.Gauges["len"] != 8 {
		t.Errorf("merged gauge = %d, want 8", s.Gauges["len"])
	}
	h := s.Histograms["lat"]
	if h.Count != 2 || h.Min != 4 || h.Max != 16 {
		t.Errorf("merged hist = %+v", h)
	}
}

// TestZeroObservationRender: an empty histogram renders with dashes, an
// empty snapshot renders a placeholder — never a divide-by-zero or a bogus
// percentile.
func TestZeroObservationRender(t *testing.T) {
	line := FormatHistogram("store.get", HistogramSnapshot{}, UnitTicks)
	if !strings.Contains(line, "count=0") || !strings.Contains(line, "p99=-") {
		t.Errorf("zero-observation render: %q", line)
	}
	if got := FormatSnapshot(Snapshot{}, UnitTicks); got != "(no metrics)\n" {
		t.Errorf("empty snapshot render: %q", got)
	}
	// A registered-but-never-observed histogram still shows up (with dashes),
	// so blind spots are visible.
	r := NewRegistry(nil)
	r.Histogram("disk.read_lat")
	out := FormatSnapshot(r.Snapshot(), UnitTicks)
	if !strings.Contains(out, "disk.read_lat") || !strings.Contains(out, "p50=-") {
		t.Errorf("unobserved histogram render: %q", out)
	}
}

// TestNilSafety: a nil Obs/Registry and the nil handles they give out must
// be inert, so uninstrumented construction paths cost nothing and crash
// nothing.
func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Counter("x").Inc()
	o.Gauge("g").Set(5)
	o.Histogram("h").Observe(9)
	o.Hit("probe")
	if o.Now() != 0 || o.Tracer() != nil {
		t.Fatal("nil obs must read as tick 0, not tracing")
	}
	if s := o.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Probes) != 0 {
		t.Fatalf("nil obs snapshot: %+v", s)
	}
	var r *Registry
	r.Counter("x").Add(1)
	if r.Now() != 0 {
		t.Fatal("nil registry clock")
	}
}

// TestLogicalClockDeterminism: the logical clock is a pure tick counter, so
// identical call sequences read identical times.
func TestLogicalClockDeterminism(t *testing.T) {
	a, b := NewLogicalClock(), NewLogicalClock()
	for i := 0; i < 100; i++ {
		if a.Now() != b.Now() {
			t.Fatal("logical clocks diverged")
		}
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines; run under -race by the CI obs leg. Totals must be exact.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat")
	c := r.Counter("ops")
	const workers, per = 8, 2000
	handles := make([]vsync.Handle, 0, workers)
	for w := 0; w < workers; w++ {
		w := w
		handles = append(handles, vsync.Go("observe", func() {
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
				c.Inc()
			}
		}))
	}
	for _, hd := range handles {
		hd.Join()
	}
	s := h.Snapshot()
	if s.Count != workers*per || c.Value() != workers*per {
		t.Fatalf("lost updates: hist=%d counter=%d", s.Count, c.Value())
	}
	if s.Min != 0 || s.Max != workers*per-1 {
		t.Fatalf("min/max: %d/%d", s.Min, s.Max)
	}
}

// TestHistogramExactSumMax: the histogram carries exact — not
// bucket-approximated — sum, min, and max through the snapshot, the JSON
// encoding used by the metrics RPC op, a merge, and the rendered table.
func TestHistogramExactSumMax(t *testing.T) {
	h := &Histogram{}
	vals := []uint64{3, 1000, 999, 7, 1}
	var sum uint64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if s.Sum != sum || s.Min != 1 || s.Max != 1000 || s.Count != 5 {
		t.Fatalf("snapshot fidelity: %+v (want sum=%d min=1 max=1000 count=5)", s, sum)
	}
	if got := s.Mean(); got != float64(sum)/5 {
		t.Fatalf("mean from exact sum: %v, want %v", got, float64(sum)/5)
	}

	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sum != sum || back.Min != 1 || back.Max != 1000 || back.Count != 5 {
		t.Fatalf("JSON round trip lost fidelity: %+v", back)
	}

	other := &Histogram{}
	other.Observe(5000)
	back.Merge(other.Snapshot())
	if back.Sum != sum+5000 || back.Min != 1 || back.Max != 5000 || back.Count != 6 {
		t.Fatalf("merge fidelity: %+v", back)
	}

	line := FormatHistogram("lat", back, UnitTicks)
	if !strings.Contains(line, "max=5000") || !strings.Contains(line, "min=1") {
		t.Fatalf("render lost exact extrema: %q", line)
	}
	if !strings.Contains(FormatPrometheus(Snapshot{Histograms: map[string]HistogramSnapshot{"lat": back}}),
		fmt.Sprintf("shardstore_lat_sum %d\n", sum+5000)) {
		t.Fatalf("prometheus exposition lost exact sum")
	}
}
