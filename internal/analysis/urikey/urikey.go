// Package urikey enforces the interned data model of ROADMAP item 1:
// agents and products are identified by URI strings (model.AgentID,
// model.ProductID), and every map keyed by one pays string hashing and
// retains the full URI for the map's lifetime. The hot packages key
// their per-agent and per-product state on the dense ordinals
// model.Ord maintains; this analyzer fails `make lint` when a map in
// one of them regresses to a URI-string key.
//
// urikey started advisory, inventorying the un-migrated sites into a
// committed LINT_urikey.txt baseline. The interning migration burned
// that baseline to empty, deleted it, and promoted the analyzer to
// enforced — the same lifecycle any future advisory pass should follow.
package urikey

import (
	"go/ast"
	"go/types"
	"strings"

	"swrec/internal/analysis/lintutil"
)

const doc = `forbids maps keyed by URI string types in the hot packages

model.AgentID and model.ProductID are URI strings: maps keyed by them
hash and retain full URIs. The hot packages key per-agent/per-product
state on dense ordinals (model.Ord); resolve the URI once at the
boundary and carry the ordinal.`

// Analyzer is the urikey pass.
var Analyzer = &lintutil.Analyzer{
	Name: "urikey",
	Doc:  doc,
	Run:  run,
}

const (
	// keys lists the pkgpath.TypeName of every URI-string key type.
	keys = "swrec/internal/model.AgentID,swrec/internal/model.ProductID"
	// pkgs are the import-path prefixes the interned data model covers.
	pkgs = "swrec/internal/core,swrec/internal/engine,swrec/internal/trust,swrec/internal/cf,swrec/internal/profile"
)

func run(pass *lintutil.Pass) *lintutil.Suppressions {
	if !lintutil.PkgMatch(pass.Pkg.Path(), pkgs) {
		return nil // out of scope
	}
	sup := lintutil.New(pass)

	nodeFilter := []ast.Node{(*ast.MapType)(nil)}
	pass.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		mt := n.(*ast.MapType)
		tv, ok := pass.TypesInfo.Types[mt.Key]
		if !ok {
			return true
		}
		if name := uriKey(tv.Type); name != "" {
			sup.Report(mt.Pos(), "map keyed by URI string "+name+": hot packages key on dense ordinals (model.Ord) — resolve the URI once at the boundary and carry the ordinal")
		}
		return true
	})
	return sup
}

// uriKey returns the qualified name when t is a configured URI key
// type, else "".
func uriKey(t types.Type) string {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	full := n.Obj().Pkg().Path() + "." + n.Obj().Name()
	for _, want := range strings.Split(keys, ",") {
		if strings.TrimSpace(want) == full {
			return full
		}
	}
	return ""
}
