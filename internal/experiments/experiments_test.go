package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The fast experiments run as tests so regressions in table generation are
// caught; the long ones (fig5, bias, mctradeoff) are covered by their
// building blocks' own tests and by cmd/experiments runs.

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, true); err != nil {
		t.Fatalf("fig2: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"shard data chunk", "LSM-tree metadata", "coalesced", "persistent: true true true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, true); err != nil {
		t.Fatalf("fig3: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no divergence") {
		t.Fatalf("fig3 output:\n%s", buf.String())
	}
}

func TestFig6(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, true); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Implementation", "Reference models", "Total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestSerializationQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := Serialization(&buf, true); err != nil {
		t.Fatalf("serialization: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no decoder panics") {
		t.Fatalf("serialization output:\n%s", buf.String())
	}
}

func TestCategorizeMapping(t *testing.T) {
	cases := map[string]locCategory{
		"internal/disk/disk.go":            catImplementation,
		"internal/disk/disk_test.go":       catUnitTests,
		"internal/model/refindex.go":       catRefModels,
		"internal/model/model_test.go":     catUnitTests,
		"internal/core/ops.go":             catFunctional,
		"internal/core/harness.go":         catCrash,
		"internal/core/concurrency.go":     catConcurrency,
		"internal/shuttle/shuttle.go":      catConcurrency,
		"internal/linearize/linearize.go":  catConcurrency,
		"internal/prop/prop.go":            catFunctional,
		"internal/experiments/fig5.go":     catTooling,
		"cmd/experiments/main.go":          catTooling,
		"examples/quickstart/main.go":      catTooling,
		"bench_test.go":                    catTooling,
		"internal/store/store.go":          catImplementation,
		"internal/analysis/analysis.go":    catTooling,
		"internal/analysis/passes_test.go": catTooling,
		"bench/node.go":                    catTooling,
		"bench/bench_test.go":              catTooling,
	}
	for path, want := range cases {
		if got := categorize(path); got != want {
			t.Errorf("categorize(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestLookupAndAll(t *testing.T) {
	if len(All()) != 10 {
		t.Fatalf("experiments: %d", len(All()))
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("fig5 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("a", "bb")
	tb.add("1", "2")
	tb.addf("x|y")
	var buf bytes.Buffer
	tb.write(&buf)
	if !strings.Contains(buf.String(), "a  bb") {
		t.Fatalf("table:\n%s", buf.String())
	}
}
