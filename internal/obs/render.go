package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Unit controls how rendered durations are formatted.
type Unit int

const (
	// UnitTicks renders raw clock values (logical-clock runs).
	UnitTicks Unit = iota
	// UnitNanos renders values as wall-clock durations.
	UnitNanos
)

// FormatValue renders one duration value in the given unit.
func FormatValue(v uint64, u Unit) string {
	if u == UnitNanos {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%d", v)
}

// FormatHistogram renders one histogram as a single stable line:
// count, mean, min, p50/p90/p99, max. A zero-observation histogram renders
// with dashes so "never exercised" is visible at a glance.
func FormatHistogram(name string, h HistogramSnapshot, u Unit) string {
	if h.Count == 0 {
		return fmt.Sprintf("%-28s count=0 p50=- p90=- p99=- max=-", name)
	}
	return fmt.Sprintf("%-28s count=%-7d mean=%-9s min=%-9s p50=%-9s p90=%-9s p99=%-9s max=%s",
		name, h.Count,
		FormatValue(uint64(h.Mean()), u),
		FormatValue(h.Min, u),
		FormatValue(h.Quantile(0.50), u),
		FormatValue(h.Quantile(0.90), u),
		FormatValue(h.Quantile(0.99), u),
		FormatValue(h.Max, u))
}

// FormatSnapshot renders a whole snapshot as a stable, sorted, sectioned
// table — the `shardstore metrics` client output.
func FormatSnapshot(s Snapshot, u Unit) string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-42s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-42s %d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			fmt.Fprintf(&b, "  %s\n", FormatHistogram(name, s.Histograms[name], u))
		}
	}
	if b.Len() == 0 {
		return "(no metrics)\n"
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
