package experiments

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"shardstore/internal/core"
)

// Fig 6 of the paper tallies lines of code for the ShardStore implementation
// and its validation artifacts, the basis of the "13% of the code base,
// 20% of the implementation" overhead claim. This experiment regenerates the
// same table for this repository by categorizing every Go file.

// locCategory classifies one file.
type locCategory string

const (
	catImplementation locCategory = "Implementation"
	catUnitTests      locCategory = "Unit tests & integration tests"
	catRefModels      locCategory = "Reference models (§3.2)"
	catFunctional     locCategory = "Functional correctness checks (§3-4)"
	catCrash          locCategory = "Crash consistency checks (§5)"
	catConcurrency    locCategory = "Concurrency checks (§6)"
	catTooling        locCategory = "Experiment tooling & examples"
)

// categorize maps a repo-relative path to its Fig 6 bucket. The mapping
// mirrors the paper's split: the implementation packages, their ordinary
// unit/integration tests, the reference models, and the three classes of
// validation infrastructure. Tools that run beside the node rather than in
// it — cmd/, the experiments, the examples, the shardlint analyzer and the
// repository benchmark module — are tooling, tests included.
func categorize(rel string) locCategory {
	rel = filepath.ToSlash(rel)
	isTest := strings.HasSuffix(rel, "_test.go")
	switch {
	case strings.HasPrefix(rel, "internal/model/"):
		if isTest {
			return catUnitTests
		}
		return catRefModels
	case strings.HasPrefix(rel, "internal/shuttle/"),
		strings.HasPrefix(rel, "internal/linearize/"):
		return catConcurrency
	case strings.HasPrefix(rel, "internal/core/"):
		base := filepath.Base(rel)
		switch {
		case strings.Contains(base, "concurrency"):
			return catConcurrency
		case base == "harness.go", strings.Contains(base, "smallgeom"),
			strings.Contains(base, "crash"), strings.Contains(base, "smoke"):
			// The store harness's substance is crash-state generation, the
			// §5 persistence/forward-progress checks, and the exhaustive
			// block-level enumerator.
			return catCrash
		default:
			return catFunctional
		}
	case strings.HasPrefix(rel, "internal/prop/"):
		return catFunctional
	case strings.HasPrefix(rel, "internal/experiments/"),
		strings.HasPrefix(rel, "internal/analysis/"),
		strings.HasPrefix(rel, "cmd/"),
		strings.HasPrefix(rel, "examples/"),
		strings.HasPrefix(rel, "bench/"),
		rel == "bench_test.go":
		return catTooling
	case isTest:
		return catUnitTests
	default:
		return catImplementation
	}
}

// countLines counts physical source lines in a file.
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// CountLOC walks the repository and returns per-category line counts. The
// walk collects the file list sequentially (ordering and categorization stay
// deterministic), then the per-file line counting — the IO-bound part —
// fans out across the shared worker pool, each file writing only its own
// slot before a sequential aggregation pass.
func CountLOC(root string) (map[locCategory]int, int, error) {
	type goFile struct {
		path string
		cat  locCategory
		n    int
		err  error
	}
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, goFile{path: path, cat: categorize(rel)})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	core.ParallelFor(Workers, len(files), func(i int) {
		files[i].n, files[i].err = countLines(files[i].path)
	})
	counts := map[locCategory]int{}
	total := 0
	for _, f := range files {
		if f.err != nil {
			return nil, 0, f.err
		}
		counts[f.cat] += f.n
		total += f.n
	}
	return counts, total, nil
}

// repoRoot locates the module root (the directory containing go.mod).
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// Fig6 renders the lines-of-code table for this repository, mirroring the
// paper's Fig 6 categories, and reports the validation overhead ratios the
// paper highlights.
func Fig6(w io.Writer, quick bool) error {
	header(w, "Fig 6: lines of code (this repository)")
	counts, total, err := CountLOC(repoRoot())
	if err != nil {
		return err
	}
	order := []locCategory{
		catImplementation, catUnitTests, catRefModels,
		catFunctional, catCrash, catConcurrency, catTooling,
	}
	tb := newTable("component", "lines")
	for _, c := range order {
		tb.add(string(c), fmt.Sprint(counts[c]))
	}
	tb.add("Total", fmt.Sprint(total))
	tb.write(w)

	impl := counts[catImplementation]
	validation := counts[catRefModels] + counts[catFunctional] + counts[catCrash] + counts[catConcurrency]
	if impl > 0 && total > 0 {
		fmt.Fprintf(w, "\nreference models + validation = %d lines: %.0f%% of the code base, %.0f%% of the implementation\n",
			validation, 100*float64(validation)/float64(total), 100*float64(validation)/float64(impl))
		fmt.Fprintf(w, "(paper: 13%% of the code base, 20%% of the implementation — vs 3-10x for full verification)\n")
	}
	return nil
}
