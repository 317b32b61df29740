// Package snapshotpin enforces the epoch-isolation invariant from the
// serving-engine PR: a *model.Community (or an engine snapshot handle)
// must not be pinned in a struct field outside the packages that own
// the epoch lifecycle (internal/engine swaps them, internal/ingest
// builds them, internal/model defines them). A field retaining a
// community across Engine.Swap keeps serving a dead epoch: reads look
// healthy but never see another write.
//
// Retention inside a type whose lifetime is provably bounded by one
// snapshot (core.Recommender, cf.Filter, ...) is legitimate — and must
// say so with a justified //nolint:snapshotpin on the field, which is
// exactly the audit trail this analyzer exists to force.
package snapshotpin

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports struct fields pinning *model.Community or a snapshot handle outside the epoch-owning packages

Epoch isolation (engine.Swap) only works if nothing outside
internal/engine and internal/ingest retains a community or snapshot
across the swap. Fields doing so serve a dead epoch silently. Bounded
per-snapshot owners document themselves with //nolint:snapshotpin.`

// Analyzer is the snapshotpin pass.
var Analyzer = &analysis.Analyzer{
	Name:       "snapshotpin",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

const (
	// pinned lists the pkgpath.TypeName of every epoch-scoped type.
	pinned = "swrec/internal/model.Community,swrec/internal/engine.Snapshot"
	// allow are the import-path prefixes allowed to pin those types.
	allow = "swrec/internal/engine,swrec/internal/ingest,swrec/internal/model"
)

func run(pass *analysis.Pass) (any, error) {
	if lintutil.PkgMatch(pass.Pkg.Path(), allow) {
		return (*lintutil.Suppressions)(nil), nil // out of scope
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := lintutil.New(pass)

	nodeFilter := []ast.Node{(*ast.StructType)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		st := n.(*ast.StructType)
		for _, field := range st.Fields.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if name := pinnedIn(tv.Type, make(map[types.Type]bool)); name != "" {
				sup.Report(field.Pos(), "struct field pins "+name+": retaining it across Engine.Swap serves a dead epoch — hold it only for the scope of one request, or justify the bounded lifetime with //nolint:snapshotpin -- reason")
			}
		}
		return true
	})
	return sup, nil
}

// pinnedIn walks t through pointers, slices, arrays, maps, and
// channels and returns the qualified name of the first epoch-scoped
// named type it reaches, or "". Struct/interface internals are not
// descended into: the diagnostic belongs on the field of the type that
// directly embeds the community.
func pinnedIn(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if name := qualified(u); name != "" {
			return name
		}
		return pinnedIn(u.Underlying(), seen)
	case *types.Alias:
		return pinnedIn(types.Unalias(u), seen)
	case *types.Pointer:
		return pinnedIn(u.Elem(), seen)
	case *types.Slice:
		return pinnedIn(u.Elem(), seen)
	case *types.Array:
		return pinnedIn(u.Elem(), seen)
	case *types.Chan:
		return pinnedIn(u.Elem(), seen)
	case *types.Map:
		if name := pinnedIn(u.Key(), seen); name != "" {
			return name
		}
		return pinnedIn(u.Elem(), seen)
	}
	return ""
}

// qualified returns "pkg/path.Name" when the named type is in the
// configured pinned list, else "".
func qualified(n *types.Named) string {
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	for _, want := range strings.Split(pinned, ",") {
		if strings.TrimSpace(want) == full {
			return full
		}
	}
	return ""
}
