// Package detrand enforces the seed-determinism invariant from the
// fault-injection PR: the packages behind the chaos suite's
// byte-identical-replay assertion (internal/faultinject) and the
// reproducible corpus/experiment generators (internal/datagen,
// internal/experiments) must derive every varying quantity from the
// run's seed. Wall-clock reads, the global math/rand state, and
// printing straight out of a map iteration all make two runs with the
// same seed diverge.
//
// Flagged shapes:
//   - time.Now / time.Since
//   - package-level math/rand and math/rand/v2 functions that touch
//     the global generator (rand.Intn, rand.Shuffle, ...); seeded
//     constructors (rand.New, rand.NewSource, rand.NewPCG, ...) and
//     methods on an explicit *rand.Rand stay legal
//   - fmt.Print*/Fprint* directly inside a `for ... range m` over a
//     map — map order is randomized per run, so the output bytes are
//     too; collect into a slice and sort before emitting
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports nondeterminism (wall clock, global rand, map-ordered output) in the seed-deterministic packages

The chaos suite asserts byte-identical WAL replay for a fixed seed;
the corpus generator and experiment harness promise reproducible runs.
time.Now, the global math/rand generator, and printing from inside a
map range all break that. Justify real wall-clock needs (latency
measurements) with //nolint:detrand -- reason.`

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name:       "detrand",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

// packages are the import-path prefixes that must be seed-deterministic.
const packages = "swrec/internal/faultinject,swrec/internal/datagen,swrec/internal/experiments,swrec/internal/loadgen,swrec/internal/attack"

// seededConstructors are package-level math/rand functions that build
// an explicit, seedable generator instead of touching global state.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatch(pass.Pkg.Path(), packages) {
		return (*lintutil.Suppressions)(nil), nil // out of scope
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := lintutil.New(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, sup, node, stack)
		case *ast.RangeStmt:
			checkMapRange(pass, sup, node)
		}
		return true
	})
	return sup, nil
}

func checkCall(pass *analysis.Pass, sup *lintutil.Suppressions, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods on an explicit generator / time.Time are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if n := fn.Name(); n == "Now" || n == "Since" {
			sup.Report(call.Pos(), "time."+n+"() in a seed-deterministic package: two runs with the same seed will diverge — derive the value from the seed or simulated clock, or justify with //nolint:detrand -- reason")
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			sup.Report(call.Pos(), "rand."+fn.Name()+"() uses the global generator: replay with the same seed will diverge — draw from an explicit seeded *rand.Rand (//nolint:detrand -- reason to override)")
		}
	}
}

// checkMapRange flags fmt print calls lexically inside the body of a
// range over a map: map iteration order is randomized per process, so
// anything emitted per-iteration is nondeterministic output.
func checkMapRange(pass *analysis.Pass, sup *lintutil.Suppressions, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
			return true
		}
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			sup.Report(call.Pos(), "fmt."+fn.Name()+" inside a map iteration emits in randomized order: collect keys, sort, then print (//nolint:detrand -- reason to override)")
		}
		return true
	})
}
