package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds the declaration file and the program to each other:
// same workloads, same metric names and units, in the same order, within the
// limits the declaration format sets.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: over the limits 8/16/128",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	better := func(n, b string) {
		if b != "lower" && b != "higher" {
			t.Errorf("%s: better = %q", n, b)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		better(m.Name, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %d is %s [%s], the program's is %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s [s, lower] is not declared")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		better(m.Name, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d is %s [%s], the program's is %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// checkReport requires a report to print every declared metric exactly once,
// nothing else, and to agree with its own result line.
func checkReport(t *testing.T, wl string, decls []decl, out string, res result) {
	t.Helper()
	printed := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != wl || !strings.HasPrefix(f[4], "n=") {
			t.Errorf("%s: malformed line %q", wl, line)
			continue
		}
		printed[f[1]]++
	}
	for _, d := range decls {
		if printed[d.name] != 1 {
			t.Errorf("%s: %s printed %d times", wl, d.name, printed[d.name])
		}
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: %s missing from the result line or in unit %q", wl, d.name, m.Unit)
		}
	}
	if len(printed) != len(decls) || len(res.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics printed, %d in the result line, %d declared", wl, len(printed), len(res.Metrics), len(decls))
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", wl, res.Correct, res.Attempted, res.Failed)
	}
}

// countsOf is everything a pass counted rather than timed: the delta of every
// registry counter, the bytes put and the space used at the end.
func countsOf(p *pass) (map[string]uint64, float64) {
	delta := map[string]uint64{"bench.used_bytes": uint64(p.usedBytes), "bench.user_bytes": uint64(p.userBytes)}
	for name, v := range p.d.after.Counters {
		delta[name] = v - p.d.before.Counters[name]
	}
	return delta, p.d.deviceUs()
}

// TestQuickRun smoke-runs every workload at 1% of its op counts, untraced and
// traced: the oracles must pass, both reports must carry exactly the declared
// names, and on the single-client workloads every count must repeat exactly
// under the same seed and move under another.
func TestQuickRun(t *testing.T) {
	o := options{seed: 1, seconds: 8, trace: 1, quick: true, out: t.TempDir()}
	for _, wl := range workloads {
		m, tr, err := measure(o, wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		for _, p := range []*pass{m, tr} {
			for _, msg := range p.firstBad {
				t.Errorf("%s: %s", wl.name, msg)
			}
		}
		var buf bytes.Buffer
		res, err := report(o, m, nil, &buf)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		checkReport(t, wl.name, endToEnd, buf.String(), res)
		buf.Reset()
		if res, err = report(o, m, tr, &buf); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		checkReport(t, wl.name, perLayer, buf.String(), res)
		if err := tr.rec.writeJSON(o.out+"/spans.json", wl.name); err != nil {
			t.Errorf("%s: span file: %v", wl.name, err)
		}
		if st := tr.rec.stats(); st[spOp].n != int64(tr.ops) {
			t.Errorf("%s: %d root spans for %d timed ops", wl.name, st[spOp].n, tr.ops)
		}

		if wl.name == "write_durable" || wl.name == "rpc_pipeline" {
			continue // concurrent callers: counts vary within a percent
		}
		counts := func(seed int64) (map[string]uint64, float64) {
			so := o
			so.seed, so.trace = seed, 0
			p, _, err := measure(so, wl)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			return countsOf(p)
		}
		first, firstDev := countsOf(m)
		again, againDev := counts(1)
		if !maps.Equal(first, again) || firstDev != againDev {
			t.Errorf("%s: counts differ between two runs of seed 1:\n%v\n%v", wl.name, first, again)
		}
		if other, _ := counts(2); maps.Equal(first, other) {
			t.Errorf("%s: seed 2 gave the counts of seed 1: the seed does not reach the inputs", wl.name)
		}
	}
}
