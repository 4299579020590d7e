package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NumBuckets is the histogram resolution: bucket i counts observations whose
// value has bit length i (i.e. v == 0 lands in bucket 0, v in [2^(i-1), 2^i)
// lands in bucket i). Exponential buckets keep the hot path allocation-free
// (a bits.Len64 plus one atomic add) and make histograms mergeable by plain
// bucket-wise addition regardless of the observed range.
const NumBuckets = 65

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards updates, so code instrumented with
// handles from a nil registry costs nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (cache occupancy, standing loss
// verdicts). A nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket exponential latency histogram. Observe is
// lock-free and allocation-free; histograms with the same (fixed) bucket
// layout merge by addition. A nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // stores ^value so zero means "no observation yet"
	max     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpper returns the largest value bucket i can hold (its rendered
// upper bound): 0 for bucket 0, 2^i - 1 otherwise.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	// min is stored bit-complemented so the zero value means "unset" and the
	// CAS loop can race freely with concurrent observers.
	for {
		cur := h.min.Load()
		if cur != 0 && ^cur <= v {
			break
		}
		if h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m != 0 {
		s.Min = ^m
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time, JSON-serializable view of a
// Histogram. Buckets is sparse (bucket index -> count). Snapshots merge by
// addition, so per-disk histograms combine into a host view.
type HistogramSnapshot struct {
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Min     uint64         `json:"min"`
	Max     uint64         `json:"max"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// Merge folds o into s. Merging is commutative and associative, so any
// grouping of per-disk (or per-case) snapshots yields the same host view.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for i, n := range o.Buckets {
		if s.Buckets == nil {
			s.Buckets = make(map[int]uint64)
		}
		s.Buckets[i] += n
	}
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1): the
// upper edge of the bucket containing that rank, clamped to the observed Max.
// A zero-observation snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= rank {
			ub := BucketUpper(i)
			if ub > s.Max {
				ub = s.Max
			}
			return ub
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry is a named collection of metrics plus the clock they are timed
// against. Handle lookup (Counter/Gauge/Histogram) takes a lock and may
// allocate; instrumented code therefore resolves its handles once at
// construction and uses only the lock-free handle operations on hot paths.
// All methods are safe for concurrent use, and a nil *Registry hands out nil
// handles, which discard updates.
type Registry struct {
	clock Clock

	// Registration is a leaf lock never held across any other
	// synchronization, and by the transparency property nothing it guards
	// feeds back into node behavior, so interleavings around it are
	// behavior-equivalent; instrumenting it only dilutes shuttle's schedule
	// budget with construction-time noise (measured: bug #14 detection fell
	// out of its PCT budget).
	mu       sync.Mutex //shardlint:allow syncusage behavior-transparent leaf lock; instrumenting adds only schedule noise
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// probes is the coverage-probe table (Obs.WithProbes); nil when off.
	probes Probes
}

// NewRegistry creates a registry timed by clock; a nil clock selects a fresh
// deterministic LogicalClock.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = NewLogicalClock()
	}
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Now reads the registry's clock. A nil registry reads as tick 0.
func (r *Registry) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Clock returns the registry's clock (nil for a nil registry).
func (r *Registry) Clock() Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (discard-everything) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// hit counts one hit of probe name; the table must be on. It is kept out of
// Obs.Hit so that the probes-off path stays small enough to inline.
func (r *Registry) hit(name string) {
	r.mu.Lock()
	r.probes[name]++
	r.mu.Unlock()
}

// Snapshot is a point-in-time, JSON-serializable view of a whole registry —
// the payload of the rpc `metrics` op. Snapshots merge by addition (gauges by
// summation), so per-disk registries combine into one host view.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Probes     Probes                       `json:"probes,omitempty"`
}

// Probes maps a coverage-probe name to its hit count. Probes are the §4.2
// coverage metrics: named implementation sites a harness declares it must
// reach, so a site its workload never hits shows as a blind spot.
type Probes map[string]uint64

// Merge adds every count of o into ps.
func (ps *Probes) Merge(o Probes) {
	for name, n := range o {
		if *ps == nil {
			*ps = make(Probes, len(o))
		}
		(*ps)[name] += n
	}
}

// Missing returns the probes in want that were never hit, sorted.
func (ps Probes) Missing(want []string) []string {
	var missing []string
	for _, name := range want {
		if ps[name] == 0 {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// Report renders the probes whose names start with prefix as a stable table:
// one "name count" line per probe, sorted by name.
func (ps Probes) Report(prefix string) string {
	var b strings.Builder
	for _, name := range sortedKeys(ps) {
		if strings.HasPrefix(name, prefix) {
			fmt.Fprintf(&b, "%-48s %d\n", name, ps[name])
		}
	}
	return b.String()
}

// Snapshot captures every registered metric. Each metric is read atomically;
// the set of metrics is captured in one pass under the registration lock.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	if len(r.probes) > 0 {
		s.Probes = make(Probes, len(r.probes))
		for name, n := range r.probes {
			s.Probes[name] = n
		}
	}
	return s
}

// Merge folds o into s (counter, gauge and probe addition, histogram merge).
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]uint64)
		}
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[name] += v
	}
	for name, h := range o.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot)
		}
		cur := s.Histograms[name]
		cur.Merge(h)
		s.Histograms[name] = cur
	}
	s.Probes.Merge(o.Probes)
}
