// Package durableerr enforces the acked-durability invariant from the
// WAL PR: on the durable path (internal/frame, internal/wal,
// internal/store, internal/checkpoint), the error of every Write, Sync,
// Close, and Truncate on a file handle must be checked. A dropped fsync error is the classic silent
// durability hole — the client got its 202, the bytes never reached
// the platter, and recovery replays a hole.
//
// Only receivers that look like durable file handles are in scope: the
// receiver's method set must include Sync() (os.File, faultinject.File,
// ...), which keeps hashers, buffers, and network writers out.
// Best-effort discards on already-failing cleanup paths are legitimate
// and must say so: `_ = f.Close() //nolint:durableerr -- reason`.
package durableerr

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports dropped Write/Sync/Close/Truncate errors on the durable path

A WAL or store that ignores an fsync/close error acks writes it may
not have persisted. Every such error in internal/frame, internal/wal,
internal/store and internal/checkpoint must be checked, or the discard
justified with
//nolint:durableerr -- reason.`

// Analyzer is the durableerr pass.
var Analyzer = &analysis.Analyzer{
	Name:       "durableerr",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

// packages are the import-path prefixes forming the durable path.
const packages = "swrec/internal/frame,swrec/internal/wal,swrec/internal/store,swrec/internal/checkpoint"

var verbs = map[string]bool{"Write": true, "Sync": true, "Close": true, "Truncate": true}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), packages) {
		return (*lintutil.Suppressions)(nil), nil // out of scope
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := lintutil.New(pass)

	report := func(call *ast.CallExpr, how string) {
		name := call.Fun.(*ast.SelectorExpr).Sel.Name
		sup.Report(call.Pos(), name+" error "+how+" on the durable path: an unchecked "+name+" can ack unpersisted state — handle the error or discard it with //nolint:durableerr -- reason")
	}

	nodeFilter := []ast.Node{
		(*ast.ExprStmt)(nil),
		(*ast.DeferStmt)(nil),
		(*ast.GoStmt)(nil),
		(*ast.AssignStmt)(nil),
	}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call := durableCall(pass, stmt.X); call != nil {
				report(call, "dropped")
			}
		case *ast.DeferStmt:
			if call := durableCall(pass, stmt.Call); call != nil {
				report(call, "dropped by defer")
			}
		case *ast.GoStmt:
			if call := durableCall(pass, stmt.Call); call != nil {
				report(call, "dropped by go statement")
			}
		case *ast.AssignStmt:
			// n, _ = f.Write(p) / _ = f.Sync(): the error result is
			// the last return value; flag when its destination is _.
			if len(stmt.Rhs) != 1 {
				return true
			}
			call := durableCall(pass, stmt.Rhs[0])
			if call == nil || len(stmt.Lhs) == 0 {
				return true
			}
			if id, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
				report(call, "assigned to _")
			}
		}
		return true
	})
	return sup, nil
}

// durableCall returns e as a method call of one of the durable verbs
// on a receiver whose method set includes Sync (the shape of a durable
// file handle), or nil.
func durableCall(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !verbs[sel.Sel.Name] {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if !returnsError(sig) || !hasSync(sig.Recv().Type()) {
		return nil
	}
	return call
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// hasSync reports whether t's method set (or its pointer's) includes a
// Sync method — the marker distinguishing durable file handles from
// hashers and buffers, whose Write errors are structurally nil.
func hasSync(t types.Type) bool {
	if m, _, _ := types.LookupFieldOrMethod(t, true, nil, "Sync"); m != nil {
		if _, ok := m.(*types.Func); ok {
			return true
		}
	}
	return false
}
