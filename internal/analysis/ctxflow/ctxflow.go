// Package ctxflow enforces the deadline-propagation invariant from the
// robustness PR: the cold paths of the serving engine must run under
// the caller's context.Context so a request budget set at the API edge
// reaches Appleseed, profile generation, and voting. Minting a fresh
// root with context.Background() or context.TODO() inside those
// packages silently detaches the computation from every deadline
// upstream.
//
// One shape is exempt without a suppression: the documented compat
// delegation `func (r *T) Foo(...)` whose body forwards to
// `r.FooCtx(context.Background(), ...)`. Those wrappers exist
// precisely to mint the root context for callers that have none, and
// their Ctx sibling is the invariant-carrying entry point.
package ctxflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports context.Background()/context.TODO() on the engine's cold paths

The deadline budget threaded from internal/api must reach every cold
computation (engine singleflight, Appleseed, profiling, voting). A
fresh root context inside the scoped packages breaks that chain. The
Foo -> FooCtx(context.Background(), ...) compat-wrapper shape is
allowed; everything else needs a justified //nolint:ctxflow.`

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name:       "ctxflow",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

// packages are the import-path prefixes the invariant applies to.
const packages = "swrec/internal/core,swrec/internal/engine,swrec/internal/trust,swrec/internal/profile"

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), packages) {
		return (*lintutil.Suppressions)(nil), nil // out of scope
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := lintutil.New(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		name := contextRootCall(pass, call)
		if name == "" {
			return true
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return true
		}
		if isCompatDelegation(call, stack) {
			return true
		}
		sup.Report(call.Pos(), "context."+name+"() detaches the cold path from the caller's deadline: thread a context.Context parameter instead (//nolint:ctxflow -- reason, if detaching is intended)")
		return true
	})
	return sup, nil
}

// contextRootCall returns "Background" or "TODO" when call is
// context.Background() / context.TODO(), else "".
func contextRootCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	if n := fn.Name(); n == "Background" || n == "TODO" {
		return n
	}
	return ""
}

// isCompatDelegation reports whether call (context.Background()) is the
// first argument of r.FooCtx(...) inside a function declared as Foo —
// the non-ctx compatibility wrapper shape kept for the pre-deadline
// API surface.
func isCompatDelegation(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok || len(parent.Args) == 0 || parent.Args[0] != call {
		return false
	}
	var callee string
	switch f := parent.Fun.(type) {
	case *ast.SelectorExpr:
		callee = f.Sel.Name
	case *ast.Ident:
		callee = f.Name
	default:
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return callee == fd.Name.Name+"Ctx"
		}
	}
	return false
}
