package analysis_test

import (
	"strings"
	"sync"
	"testing"

	"shardstore/internal/analysis"
)

// repoLoad caches the whole-module load so the clean-repo meta-test and the
// waiver-budget gate share one type-check (the dominant cost of both).
var repoLoad struct {
	once  sync.Once
	units []*analysis.Unit
	err   error
}

// loadRepo returns the fully type-checked real module, loading it at most
// once per test binary. Tests using it skip under -short.
func loadRepo(t *testing.T) []*analysis.Unit {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	repoLoad.once.Do(func() {
		repoLoad.units, repoLoad.err = analysis.LoadModule("../..", "./...")
	})
	if repoLoad.err != nil {
		t.Fatalf("load module: %v", repoLoad.err)
	}
	if len(repoLoad.units) == 0 {
		t.Fatal("loaded no units")
	}
	return repoLoad.units
}

// TestShardlintCleanOnRepo runs the full pass suite (syncusage,
// determinism, mapiter, droppederr) over the real module and requires zero
// findings. With this
// gate in place a shardlint failure in CI is always a regression introduced
// by the change under review — never pre-existing noise and never flake
// (the analysis is a pure function of the source tree).
func TestShardlintCleanOnRepo(t *testing.T) {
	units := loadRepo(t)
	diags := analysis.RunPasses(units, analysis.AllPasses())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("shardlint must run clean on the repo (%d findings): fix the code or add //shardlint:allow <pass> <reason>", len(diags))
	}
}

// TestSuppressionRequiresReason checks that a bare //shardlint:allow does
// not lift the finding and is itself reported: suppressions without a
// justification would silently erode the zero-findings invariant.
func TestSuppressionRequiresReason(t *testing.T) {
	units, err := analysis.Load(analysis.Config{
		ModulePath: "shardstore",
		Overlay: map[string]map[string]string{
			"shardstore/internal/store": {
				"fix.go": `package store

func spawn(f func()) {
	//shardlint:allow syncusage
	go f()
	//shardlint:allow nosuchpass because I said so
	go f()
}
`,
			},
		},
	}, "shardstore/internal/store")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := analysis.RunPasses(units, analysis.AllPasses())
	var missingReason, unknownPass, goFindings int
	for _, d := range diags {
		switch {
		case d.Pass == "shardlint" && strings.Contains(d.Message, "reason is mandatory"):
			missingReason++
		case d.Pass == "shardlint" && strings.Contains(d.Message, "unknown pass"):
			unknownPass++
		case d.Pass == "syncusage" && strings.Contains(d.Message, "bare go statement"):
			goFindings++
		}
	}
	if missingReason != 1 {
		t.Errorf("want 1 missing-reason diagnostic, got %d (all: %v)", missingReason, diags)
	}
	if unknownPass != 1 {
		t.Errorf("want 1 unknown-pass diagnostic, got %d (all: %v)", unknownPass, diags)
	}
	if goFindings != 2 {
		t.Errorf("malformed suppressions must not lift findings: want 2 syncusage findings, got %d (all: %v)", goFindings, diags)
	}
}

// TestSuppressionWrongPass checks that an annotation only suppresses the
// pass it names.
func TestSuppressionWrongPass(t *testing.T) {
	units, err := analysis.Load(analysis.Config{
		ModulePath: "shardstore",
		Overlay: map[string]map[string]string{
			"shardstore/internal/store": {
				"fix.go": `package store

func spawn(f func()) {
	//shardlint:allow droppederr wrong pass named on purpose
	go f()
}
`,
			},
		},
	}, "shardstore/internal/store")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := analysis.RunPasses(units, analysis.AllPasses())
	if len(diags) != 1 || diags[0].Pass != "syncusage" {
		t.Errorf("want exactly the syncusage finding to survive, got %v", diags)
	}
}
