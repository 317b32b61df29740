// Package goleak enforces the goroutine-lifecycle invariant running
// through every concurrent subsystem (engine singleflight, ingest
// applier, crawler fetch pool): a `go` statement in library code must
// tie the spawned goroutine to some lifecycle its owner can observe —
// a sync.WaitGroup, a done/stop channel, or a context. A goroutine
// with none of those is unjoinable and undrainable: Close returns,
// tests pass, and the goroutine keeps mutating state behind the next
// epoch.
//
// Evidence accepted (in the goroutine body, or for calls into another
// package, in the arguments): referencing a context.Context, sending
// on / receiving from / closing / ranging over a channel, a select
// statement, or calling (*sync.WaitGroup).Done or .Add. Same-package
// callees (`go p.run()`) are resolved and their bodies inspected.
package goleak

import (
	"go/ast"
	"go/types"

	"swrec/internal/analysis/lintutil"
)

const doc = `reports naked go statements in library code with no observable lifecycle

Every goroutine spawned by swrec library code must be joinable or
cancellable: tie it to a sync.WaitGroup, a done channel, or a
context.Context. A fire-and-forget goroutine outlives Close and the
epoch that spawned it. Justify true fire-and-forget spawns with
//nolint:goleak -- reason.`

// Analyzer is the goleak pass.
var Analyzer = &lintutil.Analyzer{
	Name: "goleak",
	Doc:  doc,
	Run:  run,
}

// packages are the import-path prefixes of library code (cmd/ and
// examples/ are callers, not library).
const packages = "swrec/internal"

func run(pass *lintutil.Pass) *lintutil.Suppressions {
	if !lintutil.PkgMatch(pass.Pkg.Path(), packages) {
		return nil // out of scope
	}
	sup := lintutil.New(pass)
	decls := funcDecls(pass)

	nodeFilter := []ast.Node{(*ast.GoStmt)(nil)}
	pass.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		g := n.(*ast.GoStmt)
		if tied(pass, decls, g.Call, 0) {
			return true
		}
		sup.Report(g.Pos(), "goroutine has no observable lifecycle: tie it to a sync.WaitGroup, done channel, or context.Context so Close/Swap can drain it (//nolint:goleak -- reason for true fire-and-forget)")
		return true
	})
	return sup
}

// funcDecls indexes this package's function declarations by their
// types object so `go p.run()` can be resolved to run's body.
func funcDecls(pass *lintutil.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

const maxResolveDepth = 4

// tied reports whether the spawned call carries lifecycle evidence.
func tied(pass *lintutil.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr, depth int) bool {
	// Lifecycle machinery passed as an argument counts regardless of
	// where the callee lives: go run(ctx), go drain(done).
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && lifecycleType(tv.Type) {
			return true
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return bodyTied(pass, fun.Body)
	default:
		if depth >= maxResolveDepth {
			return false
		}
		var obj types.Object
		switch f := fun.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[f]
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[f.Sel]
		}
		if fn, ok := obj.(*types.Func); ok {
			if fd, ok := decls[fn]; ok && fd.Body != nil {
				return bodyTied(pass, fd.Body)
			}
		}
		return false
	}
}

// bodyTied scans a goroutine body for lifecycle evidence.
func bodyTied(pass *lintutil.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[node.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch f := node.Fun.(type) {
			case *ast.Ident:
				if _, isBuiltin := pass.TypesInfo.Uses[f].(*types.Builtin); isBuiltin && f.Name == "close" {
					found = true // builtin close(ch)
				}
			case *ast.SelectorExpr:
				if waitGroupMethod(pass, f) {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[node]; obj != nil && lifecycleType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lifecycleType reports whether t is context.Context, a channel, or a
// (*)sync.WaitGroup — the three lifecycle carriers.
func lifecycleType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			full := obj.Pkg().Path() + "." + obj.Name()
			if full == "context.Context" || full == "sync.WaitGroup" {
				return true
			}
		}
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// waitGroupMethod reports whether sel is a Done/Add/Wait call on a
// sync.WaitGroup.
func waitGroupMethod(pass *lintutil.Pass, sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if name != "Done" && name != "Add" && name != "Wait" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lifecycleRecv(sig.Recv().Type())
}

func lifecycleRecv(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
