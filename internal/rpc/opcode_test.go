package rpc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestOpcodeCoverage: every opcode up to opMax has a name (so its metrics
// and traces never fall back to "op_N"), a dispatch case, a wire codec case
// and a registered latency histogram, and opMax+1 has none of them — so an
// opcode added without an opName case, a dispatch case or an opMax bump
// fails here. Every Opcode constant declared in proto.go is at most opMax.
func TestOpcodeCoverage(t *testing.T) {
	srv := NewServer(newTestStores(t, 2))
	hists := srv.Obs().Snapshot().Histograms
	for op := Opcode(1); op <= opMax+1; op++ {
		var missing []string
		name := opName(op)
		if name == fmt.Sprintf("op_%d", uint8(op)) {
			missing = append(missing, "opName case")
		}
		if p := srv.dispatch(&wireReq{op: op}, nil); strings.Contains(p.msg, "unknown opcode") {
			missing = append(missing, "dispatch case")
		}
		if _, err := encodeReq(&wireReq{op: op}); err != nil && strings.Contains(err.Error(), "unknown opcode") {
			missing = append(missing, "wire codec case")
		}
		if _, ok := hists["rpc."+name+"_lat"]; !ok {
			missing = append(missing, "latency histogram")
		}
		if op <= opMax && len(missing) > 0 {
			t.Errorf("opcode %d (%s) lacks: %s", op, name, strings.Join(missing, ", "))
		}
		if op == opMax+1 && len(missing) != 4 {
			t.Errorf("opMax+1 = %d must be unknown everywhere, but only lacks %v", op, missing)
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Opcode" {
				continue
			}
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("opcode %s is not a literal", id.Name)
				}
				v, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				declared++
				if v > int(opMax) {
					t.Errorf("opcode %s = %d exceeds opMax = %d: its latency histogram is never registered", id.Name, v, opMax)
				}
			}
		}
	}
	if declared != int(opMax)+1 {
		t.Errorf("proto.go declares %d opcodes, want opInvalid..opMax = %d", declared, int(opMax)+1)
	}
}
