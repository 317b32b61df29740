// Package expvarname enforces the metrics-naming convention from the
// serving and durability PRs: every expvar published by swrec library
// code lives under a "swrec_"-prefixed name (swrec_engine, swrec_api,
// swrec_ingest, swrec_resilience, ...). /v1/metrics exposes the whole
// expvar namespace, so an unprefixed name collides with the runtime's
// own vars and breaks dashboards that scrape by prefix.
package expvarname

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports expvar names published without the swrec_ prefix

/v1/metrics serves the full expvar namespace; swrec's own maps and
vars must be grouped under swrec_* so they neither collide with
runtime vars nor escape prefix-scraping dashboards.`

// Analyzer is the expvarname pass.
var Analyzer = &analysis.Analyzer{
	Name:       "expvarname",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

const (
	// packages are the import-path prefixes the convention applies to.
	packages = "swrec/internal"
	// prefix is the required name prefix of published expvars.
	prefix = "swrec_"
)

// constructors are the expvar package-level functions whose first
// argument is the published name.
var constructors = map[string]bool{
	"NewMap": true, "NewInt": true, "NewFloat": true, "NewString": true, "Publish": true,
}

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
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !constructors[sel.Sel.Name] {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "expvar" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return true // dynamic name: out of static reach
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || strings.HasPrefix(name, prefix) {
			return true
		}
		sup.Report(lit.Pos(), "expvar name "+strconv.Quote(name)+" lacks the "+strconv.Quote(prefix)+" prefix: /v1/metrics groups swrec metrics by that prefix (//nolint:expvarname -- reason to override)")
		return true
	})
	return sup, nil
}
