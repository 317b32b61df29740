package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
)

// Analyzer is one swrecvet pass. What it checks is fixed in its source:
// the type has no flags, so `go vet` cannot be told to check less.
type Analyzer struct {
	Name string // names its diagnostics and the suppressions that cover them
	Doc  string
	// Requires are run before the analyzer, on the same package; their
	// results are in Pass.ResultOf. Only the nolint pass has any.
	Requires []*Analyzer
	// Run reports through pass and returns the suppressions it honoured
	// (nil when the package is out of its scope).
	Run func(pass *Pass) *Suppressions
}

// Diagnostic is one finding, at a position in the pass's file set.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	ResultOf  map[*Analyzer]*Suppressions // by analyzer run before this one, Requires among them
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// WithStack walks the pass's files in source order and calls f for
// every node whose dynamic type is that of an element of filter: once
// on the way down (push), with the path from the *ast.File to n as
// stack, and once on the way up. A false return on push skips n's
// children and its pop; the return on pop is ignored.
func (p *Pass) WithStack(filter []ast.Node, f func(n ast.Node, push bool, stack []ast.Node) (proceed bool)) {
	match := func(n ast.Node) bool {
		return slices.ContainsFunc(filter, func(m ast.Node) bool { return reflect.TypeOf(m) == reflect.TypeOf(n) })
	}
	var stack []ast.Node
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil { // ast.Inspect pops only the nodes it descended into
				if top := stack[len(stack)-1]; match(top) {
					f(top, false, stack)
				}
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if match(n) && !f(n, true, stack) {
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// Run runs analyzers over one type-checked package, each after what it
// Requires, and returns the diagnostics of each. A prerequisite that is
// not itself in analyzers runs silently.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) map[*Analyzer][]Diagnostic {
	results := make(map[*Analyzer]*Suppressions)
	diags := make(map[*Analyzer][]Diagnostic)
	var run func(a *Analyzer)
	run = func(a *Analyzer) {
		if _, done := results[a]; done {
			return
		}
		for _, r := range a.Requires {
			run(r)
		}
		report := func(Diagnostic) {}
		if slices.Contains(analyzers, a) {
			report = func(d Diagnostic) { diags[a] = append(diags[a], d) }
		}
		results[a] = a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			ResultOf:  results,
			Report:    report,
		})
	}
	for _, a := range analyzers {
		run(a)
	}
	return diags
}
