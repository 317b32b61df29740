package analyzertest_test

import (
	"go/ast"
	"testing"

	"golang.org/x/tools/go/analysis"
	"swrec/internal/analysis/analyzertest"
	"swrec/internal/analysis/lintutil"
)

// lightAnalyzer is a throwaway analyzer for testing the harness
// itself: it reports every call of (*harnessdep.Fuse).Light, which
// forces type resolution across the fixture package boundary — a
// string match on the method name alone could not tell a Fuse from a
// decoy.
var lightAnalyzer = &analysis.Analyzer{
	Name: "marktest",
	Doc:  "reports Fuse.Light calls (analyzertest self-test)",
	Run: func(pass *analysis.Pass) (any, error) {
		sup := lintutil.New(pass)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Light" {
					return true
				}
				tv, ok := pass.TypesInfo.Types[sel.X]
				if !ok {
					return true
				}
				if tv.Type.String() == "*harnessdep.Fuse" {
					sup.Report(call.Pos(), "Light called on "+tv.Type.String())
				}
				return true
			})
		}
		return nil, nil
	},
}

// TestMultiFileMultiPackage proves the harness loads every file of a
// fixture package (diagnostics land in both a.go and b.go), resolves
// imports against testdata/src (the receiver type lives in
// harnessdep), honors justified suppressions, and keeps unjustified
// suppressions inert — b.go pins a diagnostic that still fires under
// a reason-less //nolint.
func TestMultiFileMultiPackage(t *testing.T) {
	analyzertest.Run(t, lightAnalyzer, "harness")
}
