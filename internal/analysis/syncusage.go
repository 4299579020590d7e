package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// instrumentedPkgs are the packages whose synchronization must route
// through internal/vsync so that shuttle explorations control every
// interleaving. One raw primitive in this set silently makes the model
// checker's "exhaustive" claim false (§6: Loom/Shuttle are only sound when
// every synchronization operation is instrumented).
//
// Any wrapper of store.KV that the conformance harness or the shuttle
// checker will drive belongs in this set too: the soundness argument above
// applies to every synchronization operation behind the server's seam, the
// wrapper's included. Add its package path here when introducing one. See
// the NOTE on store.KV in internal/store/kv.go.
var instrumentedPkgs = map[string]bool{
	"internal/store":       true,
	"internal/chunk":       true,
	"internal/lsm":         true,
	"internal/buffercache": true,
	"internal/scrub":       true,
	"internal/compact":     true,
	"internal/obs":         true,
	"internal/dep":         true,
	"internal/extent":      true,
	"internal/disk":        true,
}

// rawSyncNames are the sync package identifiers with vsync replacements.
var rawSyncNames = map[string]string{
	"Mutex":   "vsync.Mutex",
	"RWMutex": "vsync.RWMutex",
	"Cond":    "vsync.Cond",
	"NewCond": "vsync.NewCond",
}

// SyncUsage enforces instrumentation completeness in the model-checked
// packages: no raw sync.Mutex/RWMutex/Cond, no bare go statements (threads
// shuttle cannot schedule or join), and no t.Parallel in their tests (the
// vsync runtime is process-global, so parallel tests would overlap a
// model-checking run).
var SyncUsage = &Pass{
	Name: "syncusage",
	Doc:  "instrumented packages must use vsync wrappers, not raw sync/go/t.Parallel",
	Run:  runSyncUsage,
}

func runSyncUsage(u *Unit) []Diagnostic {
	if !instrumentedPkgs[u.RelPath()] {
		return nil
	}
	var out []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, Diagnostic{
					Pass: "syncusage",
					Pos:  u.Fset.Position(n.Pos()),
					Message: "bare go statement in instrumented package: use vsync.Go so " +
						"shuttle can schedule and join the thread",
				})
			case *ast.Ident:
				obj := u.Info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if obj.Pkg().Path() == "sync" {
					if repl, ok := rawSyncNames[obj.Name()]; ok {
						out = append(out, Diagnostic{
							Pass: "syncusage",
							Pos:  u.Fset.Position(n.Pos()),
							Message: fmt.Sprintf("raw sync.%s in instrumented package: use %s so "+
								"shuttle explorations stay sound", obj.Name(), repl),
						})
					}
					return true
				}
				if fn, ok := obj.(*types.Func); ok && obj.Pkg().Path() == "testing" &&
					fn.FullName() == "(*testing.T).Parallel" {
					out = append(out, Diagnostic{
						Pass: "syncusage",
						Pos:  u.Fset.Position(n.Pos()),
						Message: "t.Parallel in an instrumented package's tests: the vsync " +
							"runtime is process-global, so parallel tests can overlap and " +
							"corrupt a model-checking run",
					})
				}
			}
			return true
		})
	}
	return out
}
