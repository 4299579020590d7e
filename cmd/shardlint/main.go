// Command shardlint runs the repo's static-analysis pass suite
// (internal/analysis) over the module and exits nonzero on any finding.
//
// Usage:
//
//	go run ./cmd/shardlint ./...
//	go run ./cmd/shardlint -json ./...
//	go run ./cmd/shardlint -waivers ./...
//
// The four per-file passes enforce the validation stack's soundness
// side-conditions, the ones no execution can check: syncusage (vsync
// instrumentation completeness in model-checked packages), determinism (no
// wall clock / global math/rand on replayed paths), mapiter (map iteration
// order must not leak into harness-visible state), and droppederr (no
// discarded disk/extent/chunk IO errors). Lock discipline is checked at run
// time by the internal/shuttle scheduler; span stage names and RPC opcode
// coverage by tests in internal/rpc.
//
// Findings are acknowledged in place with `//shardlint:allow <pass>
// <reason>`; -waivers prints the full justified inventory in the line
// format committed to lint_waivers.txt, which scripts/ci.sh diffs so the
// waiver set cannot grow without review. -json emits findings as a JSON
// array for tooling; -v reports per-pass wall time to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"shardstore/internal/analysis"
)

// jsonDiag is the machine-readable rendering of one finding.
type jsonDiag struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

func main() {
	listPasses := flag.Bool("passes", false, "list the pass suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	waivers := flag.Bool("waivers", false, "print the justified-waiver inventory (lint_waivers.txt format) and exit")
	verbose := flag.Bool("v", false, "report per-pass wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: shardlint [-passes] [-json] [-waivers] [-v] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	passes := analysis.AllPasses()
	if *listPasses {
		for _, p := range passes {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardlint: %v\n", err)
		os.Exit(2)
	}
	units, err := analysis.LoadModule(root, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardlint: %v\n", err)
		os.Exit(2)
	}

	if *waivers {
		for _, w := range analysis.Waivers(units, passes) {
			fmt.Println(w)
		}
		return
	}

	diags, timings := analysis.RunPassesTimed(units, passes)
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "shardlint: pass %-12s %s\n", tm.Name, tm.Elapsed.Round(10*time.Microsecond))
		}
	}
	cwd, _ := os.Getwd()
	rel := func(filename string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, filename); err == nil && !filepath.IsAbs(r) {
				return r
			}
		}
		return filename
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Pass:    d.Pass,
				File:    rel(d.Pos.Filename),
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "shardlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := d.Pos
			pos.Filename = rel(pos.Filename)
			fmt.Printf("%s: [%s] %s\n", pos, d.Pass, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "shardlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
