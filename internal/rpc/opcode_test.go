package rpc

import (
	"context"
	"errors"
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

// TestCapabilityOpcodeMatrix pins the opcode contract over the wire: every
// opcode answers OK against store backends, plain and durable forms alike,
// on an untraced ("full") and a traced server; trace and slowlog answer
// CodeUnsupported only when the server's Obs carries no spans.
func TestCapabilityOpcodeMatrix(t *testing.T) {
	// Calls run in opcode order, so remove_disk precedes return_disk.
	ctx := context.Background()
	calls := [opMax + 1]func(c *Client) error{
		opPut: func(c *Client) error {
			if err := c.Put(ctx, "m-put", []byte("v")); err != nil {
				return err
			}
			return c.PutDurable(ctx, "m-dur", []byte("v"))
		},
		opGet:    func(c *Client) error { _, err := c.Get(ctx, "seed"); return err },
		opDelete: func(c *Client) error { return c.Delete(ctx, "del-seed") },
		opList:   func(c *Client) error { _, err := c.List(ctx); return err },
		opBulkCreate: func(c *Client) error {
			return c.BulkCreate(ctx, []string{"b1", "b2"}, [][]byte{[]byte("1"), []byte("2")})
		},
		opBulkRemove:  func(c *Client) error { return c.BulkRemove(ctx, []string{"b1", "b2"}) },
		opRemoveDisk:  func(c *Client) error { return c.RemoveDisk(ctx, 0) },
		opReturnDisk:  func(c *Client) error { return c.ReturnDisk(ctx, 0) },
		opFlush:       func(c *Client) error { return c.Flush(ctx, 0) },
		opStats:       func(c *Client) error { _, err := c.Stats(ctx); return err },
		opScrub:       func(c *Client) error { _, err := c.Scrub(ctx, 0); return err },
		opScrubStatus: func(c *Client) error { _, err := c.ScrubStatus(ctx, 0); return err },
		opMetrics:     func(c *Client) error { _, err := c.Metrics(ctx); return err },
		opMGet:        func(c *Client) error { _, err := c.MGet(ctx, []string{"seed"}); return err },
		opMPut: func(c *Client) error {
			if err := firstItemErr(c.MPut(ctx, []string{"m-mput"}, [][]byte{[]byte("v")})); err != nil {
				return err
			}
			return firstItemErr(c.MPutDurable(ctx, []string{"m-mdur"}, [][]byte{[]byte("v")}))
		},
		opMDelete: func(c *Client) error { return firstItemErr(c.MDelete(ctx, []string{"mdel-seed"})) },
		opTrace:   func(c *Client) error { _, err := c.Trace(ctx); return err },
		opSlowLog: func(c *Client) error { _, err := c.SlowLog(ctx); return err },
		opScan:    func(c *Client) error { _, _, err := c.Scan(ctx, "", "", 0); return err },
	}
	_, plain := newTestServer(t, 2)
	_, traced := newTracedServer(t, 2, 0)
	for _, tc := range []struct {
		name  string
		c     *Client
		spans bool
	}{{"full", plain, false}, {"traced", traced, true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []string{"seed", "del-seed", "mdel-seed"} {
				if err := tc.c.Put(ctx, k, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for op := Opcode(1); op <= opMax; op++ {
				if calls[op] == nil {
					t.Errorf("opcode %d (%s) has no call in the backend table", op, opName(op))
					continue
				}
				err := calls[op](tc.c)
				if !tc.spans && (op == opTrace || op == opSlowLog) {
					var we *WireError
					if !errors.As(err, &we) || we.Code != CodeUnsupported {
						t.Errorf("%s: %v, want CodeUnsupported", opName(op), err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v, want success", opName(op), err)
				}
			}
		})
	}
}
