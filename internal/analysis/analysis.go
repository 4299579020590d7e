// Package analysis is a standard-library-only static-analysis driver that
// enforces the validation stack's soundness assumptions.
//
// The paper's methodology leans on side-conditions its main harness cannot
// check from the inside: Loom/Shuttle explorations are only sound if every
// synchronization operation is instrumented (§6), and replayable
// minimization is only sound if failing executions are bit-identical under
// re-execution (§4.1). Miri and Crux play the same role for undefined
// behavior and panic-freedom — mechanized checks *outside* the harness (§5).
// This package mechanizes the Go reproduction's equivalents as named passes
// over the module's packages:
//
//   - syncusage: instrumented packages must use the vsync wrappers, never
//     raw sync primitives, bare go statements, or t.Parallel.
//   - determinism: deterministic packages must not read the wall clock or
//     the global math/rand source.
//   - mapiter: deterministic packages must not let Go's randomized map
//     iteration order leak into slices, output, or channels.
//   - droppederr: disk/extent/chunk IO errors must never be discarded.
//
// Each pass checks what no execution can: which primitives the source
// names, and what it discards. Lock discipline (order cycles, locks held at
// thread exit, re-acquisition, Cond.Wait holding another lock) is checked
// where the locks run, by the internal/shuttle scheduler, and the span
// stage vocabulary and RPC opcode coverage by tests in internal/rpc.
//
// The driver is built on go/parser, go/ast, and go/types with the stdlib
// source importer — no golang.org/x/tools dependency — so it runs anywhere
// the toolchain does. Findings are position-accurate diagnostics; the
// cmd/shardlint CLI exits nonzero on any finding. All passes share one
// type-checked load.
//
// # Suppressions
//
// A finding can be acknowledged in place with
//
//	//shardlint:allow <pass> <reason>
//
// either trailing the flagged line or on the line directly above it. The
// reason is mandatory: an annotation without one (or naming an unknown
// pass) is itself a diagnostic, so suppressions stay auditable —
// `shardlint -waivers` prints the full inventory with justifications, and
// scripts/ci.sh diffs that inventory against the committed
// lint_waivers.txt so the waiver set cannot grow silently.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding from one pass at one source position.
type Diagnostic struct {
	Pass    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Message)
}

// Pass is a named check over one unit at a time.
type Pass struct {
	// Name identifies the pass in diagnostics and suppression comments.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Run reports the pass's findings for u. Suppression filtering is the
	// driver's job; Run reports everything it sees.
	Run func(u *Unit) []Diagnostic
}

// AllPasses returns the repo's pass suite in reporting order.
func AllPasses() []*Pass {
	return []*Pass{SyncUsage, Determinism, MapIter, DroppedErr}
}

// PassTiming is one pass's wall-clock cost from a timed run, for the CLI's
// -v output (keeping the CI leg's cost visible as passes accrete).
type PassTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunPasses runs every pass over every unit, applies //shardlint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed suppression comments are reported as diagnostics of the
// pseudo-pass "shardlint" and cannot themselves be suppressed.
func RunPasses(units []*Unit, passes []*Pass) []Diagnostic {
	diags, _ := RunPassesTimed(units, passes)
	return diags
}

// RunPassesTimed is RunPasses plus per-pass wall-clock timings.
func RunPassesTimed(units []*Unit, passes []*Pass) ([]Diagnostic, []PassTiming) {
	known := make(map[string]bool, len(passes))
	for _, p := range passes {
		known[p.Name] = true
	}
	waivers, diags := collectAllows(units, known)
	allows := make(map[allowKey]bool, 2*len(waivers))
	for _, w := range waivers {
		allows[allowKey{w.Pos.Filename, w.Pos.Line, w.Pass}] = true
		allows[allowKey{w.Pos.Filename, w.Pos.Line + 1, w.Pass}] = true
	}
	timings := make([]PassTiming, 0, len(passes))
	for _, p := range passes {
		start := time.Now()
		var found []Diagnostic
		for _, u := range units {
			found = append(found, p.Run(u)...)
		}
		timings = append(timings, PassTiming{Name: p.Name, Elapsed: time.Since(start)})
		for _, d := range found {
			if allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Pass}] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return diags, timings
}

// allowPrefix is the suppression marker. Kept as a single grep-able token:
// no space after //, like //go:build.
const allowPrefix = "//shardlint:allow"

type allowKey struct {
	file string
	line int
	pass string
}

// Waiver is one well-formed //shardlint:allow annotation: the pass it
// suppresses, where it sits, and the mandatory justification.
type Waiver struct {
	Pass string
	// Pos is the annotation's position. File is the module-relative
	// rendering of Pos.Filename used by the committed inventory, so the
	// file's content is host-path independent.
	Pos    token.Position
	File   string
	Reason string
}

// String renders the inventory line format committed to lint_waivers.txt:
// pass, module-relative file:line, reason.
func (w Waiver) String() string {
	return fmt.Sprintf("%s %s:%d %s", w.Pass, w.File, w.Pos.Line, w.Reason)
}

// Waivers returns every well-formed suppression annotation in units, sorted
// by file then line — the full justified-waiver inventory that replaces the
// old `grep -rn "//shardlint:allow"` workflow. Pass names are validated
// against passes; malformed annotations are not waivers (they are
// diagnostics) and are omitted here.
func Waivers(units []*Unit, passes []*Pass) []Waiver {
	known := make(map[string]bool, len(passes))
	for _, p := range passes {
		known[p.Name] = true
	}
	ws, _ := collectAllows(units, known)
	return ws
}

// collectAllows scans every file's comments for suppression annotations. A
// well-formed annotation covers its own line and the line directly below it
// (so it works both trailing the flagged statement and standalone above
// it); RunPassesTimed derives the allow set from the returned inventory.
// Annotations missing a reason or naming an unknown pass are returned as
// diagnostics.
func collectAllows(units []*Unit, known map[string]bool) ([]Waiver, []Diagnostic) {
	var waivers []Waiver
	var bad []Diagnostic
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Pass: "shardlint",
							Pos:  pos,
							Message: fmt.Sprintf("malformed suppression %q: want %s <pass> <reason> — the reason is mandatory",
								c.Text, allowPrefix),
						})
						continue
					}
					pass := fields[0]
					if !known[pass] {
						bad = append(bad, Diagnostic{
							Pass:    "shardlint",
							Pos:     pos,
							Message: fmt.Sprintf("suppression names unknown pass %q", pass),
						})
						continue
					}
					waivers = append(waivers, Waiver{
						Pass:   pass,
						Pos:    pos,
						File:   moduleRelFile(u, pos.Filename),
						Reason: strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return waivers, bad
}

// moduleRelFile renders filename relative to the module root using the
// unit's import path, so inventory lines are stable across checkouts (and
// across in-memory overlay fixtures, whose files have no real directory).
func moduleRelFile(u *Unit, filename string) string {
	base := filename
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	dir := strings.TrimPrefix(u.Path, u.ModulePath)
	dir = strings.TrimPrefix(dir, "/")
	if dir == "" {
		return base
	}
	return dir + "/" + base
}
