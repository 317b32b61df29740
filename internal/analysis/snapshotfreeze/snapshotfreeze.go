// Package snapshotfreeze enforces the publication side of the epoch
// contract that snapshotpin enforces on the retention side: once a
// *model.Community (or an engine.Snapshot, or a compiled
// profmat.Matrix, or the community's model.Adjacency and the statement
// rows it reads) has been handed to Engine.Swap / SwapDelta or a
// checkpoint encoder, it is frozen — every reader may hold it lock-free
// precisely because nothing writes it anymore. A field store or
// slice-element write through a frozen value outside the builder
// packages is a data race against every concurrent reader of the
// published epoch, even when the race detector happens not to see it.
//
// This is the go/ast + go/types approximation of the SSA formulation
// ("no store whose base is reachable from a Swap operand"): outside the
// builder packages that own the pre-publication phase
// (model/engine/ingest/checkpoint/...), any write whose left-hand chain
// passes through a frozen type is reported, unless the chain provably
// roots in a locally built value (assigned in the same function from a
// composite literal, a New*/Copy constructor, or an accessor on such a
// value) — local construction is the pre-publication phase by
// definition. Mutating method calls (SetTrust, AddAgent, ...) on
// frozen receivers are treated as writes.
//
// A Clone() result is in between: the clone is a new generation that
// shares every record with the published one until it writes to it, and
// only its own setters know how to take a record over first. So mutator
// calls on the clone itself are legal, and so are writes through a
// record its AddAgent/AddProduct returned (those hand out the clone's
// own copy) — but a field or row write through a record merely read
// from it (clone.Agent(id).Name = n, or into its TrustedPeers()[k])
// lands in the published snapshot and is reported.
//
// Legitimate exceptions document themselves with
// //nolint:snapshotfreeze -- reason.
package snapshotfreeze

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports writes through a frozen snapshot type outside the builder packages

After a community, snapshot, or compiled matrix is published via
Engine.Swap or encoded into a checkpoint, readers hold it lock-free.
Writing through it afterwards is a silent data race. Build a fresh
value and swap it in instead, or justify the exception with
//nolint:snapshotfreeze -- reason.`

// Analyzer is the snapshotfreeze pass.
var Analyzer = &analysis.Analyzer{
	Name:       "snapshotfreeze",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

const (
	// frozen lists the pkgpath.TypeName of every frozen-after-publication
	// type.
	frozen = "swrec/internal/model.Community,swrec/internal/model.Agent,swrec/internal/model.Product,swrec/internal/model.Adjacency,swrec/internal/model.Row,swrec/internal/engine.Snapshot,swrec/internal/profmat.Matrix,swrec/internal/profmat.Row"
	// allow are the import-path prefixes that own the pre-publication
	// build phase.
	allow = "swrec/internal/model,swrec/internal/engine,swrec/internal/ingest,swrec/internal/checkpoint,swrec/internal/profmat,swrec/internal/foaf,swrec/internal/corpus,swrec/internal/datagen,swrec/internal/attack"
	// mutators are the method names treated as writes when invoked on a
	// frozen receiver.
	mutators = "AddAgent,AddProduct,SetTrust,SetRating,DeleteTrust,DeleteRating"
)

func run(pass *analysis.Pass) (any, error) {
	if lintutil.PkgMatch(pass.Pkg.Path(), allow) {
		return (*lintutil.Suppressions)(nil), nil // out of scope
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	c := &checker{
		pass:  pass,
		sup:   lintutil.New(pass),
		built: make(map[*ast.FuncDecl]map[types.Object]origin),
	}

	nodeFilter := []ast.Node{
		(*ast.AssignStmt)(nil),
		(*ast.IncDecStmt)(nil),
		(*ast.CallExpr)(nil),
	}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.write(lhs, stack)
			}
		case *ast.IncDecStmt:
			c.write(n.X, stack)
		case *ast.CallExpr:
			c.mutatorCall(n, stack)
		}
		return true
	})
	return c.sup, nil
}

// origin classifies how a function came by a local variable.
type origin uint8

const (
	// built: the function constructed the value; nothing else sees it yet.
	built origin = iota + 1
	// cloned: a Clone() result, writable only through its own setters.
	cloned
)

type checker struct {
	pass  *analysis.Pass
	sup   *lintutil.Suppressions
	built map[*ast.FuncDecl]map[types.Object]origin
}

// write reports lhs when its selector/index chain passes through a
// frozen type whose root is not locally built.
func (c *checker) write(lhs ast.Expr, stack []ast.Node) {
	name := c.frozenChain(lhs)
	if name == "" {
		return
	}
	if c.locallyBuilt(rootIdent(lhs), stack) {
		return
	}
	c.sup.Report(lhs.Pos(), "write through frozen "+name+" after publication: readers hold the swapped snapshot lock-free, so this races with every concurrent read — build a fresh value and Swap it in, or justify with //nolint:snapshotfreeze -- reason")
}

// mutatorCall reports calls of a configured mutator method on a frozen
// receiver that is not locally built.
func (c *checker) mutatorCall(call *ast.CallExpr, stack []ast.Node) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !nameIn(sel.Sel.Name, mutators) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return
	}
	name := frozenType(tv.Type)
	if name == "" {
		return
	}
	if c.locallyBuilt(rootIdent(sel.X), stack) {
		return
	}
	// A setter invoked on the clone itself copies before it writes.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && c.originOf(id, stack) == cloned {
		return
	}
	c.sup.Report(call.Pos(), sel.Sel.Name+" mutates frozen "+name+" after publication: readers hold the swapped snapshot lock-free, so this races with every concurrent read — build a fresh value and Swap it in, or justify with //nolint:snapshotfreeze -- reason")
}

// frozenChain walks the write chain (selectors, indexes, derefs) and
// returns the qualified name of the first frozen type an operand has,
// or "". Writing a plain local variable of frozen type (x = ...) is
// rebinding, not mutation, and is not a chain.
func (c *checker) frozenChain(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if name := c.frozenExpr(x.X); name != "" {
				return name
			}
			e = x.X
		case *ast.IndexExpr:
			if name := c.frozenExpr(x.X); name != "" {
				return name
			}
			e = x.X
		case *ast.StarExpr:
			if name := c.frozenExpr(x.X); name != "" {
				return name
			}
			e = x.X
		default:
			return ""
		}
	}
}

func (c *checker) frozenExpr(e ast.Expr) string {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok {
		return ""
	}
	return frozenType(tv.Type)
}

// frozenType dereferences pointers and reports the qualified name when
// the named type is in the configured frozen list.
func frozenType(t types.Type) string {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	full := n.Obj().Pkg().Path() + "." + n.Obj().Name()
	if nameIn(full, frozen) {
		return full
	}
	return ""
}

func nameIn(name, patterns string) bool {
	for _, p := range strings.Split(patterns, ",") {
		if strings.TrimSpace(p) == name {
			return true
		}
	}
	return false
}

// rootIdent walks to the identifier a write chain roots in, stepping
// through method calls to their receivers (c.Agent(id).Name roots in
// c). A chain rooted in a bare call result has no retained origin to
// classify and yields nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		default:
			return nil
		}
	}
}

// locallyBuilt reports whether root resolves to a variable the
// enclosing function built itself — the pre-publication phase. nil
// roots (chains off a bare call result) are treated as built: writing
// into a value the statement just constructed is builder-style by
// construction.
func (c *checker) locallyBuilt(root *ast.Ident, stack []ast.Node) bool {
	return root == nil || c.originOf(root, stack) == built
}

// originOf returns how the enclosing function came by id, or 0 when it
// did not construct it (a parameter, a field, a read from elsewhere).
func (c *checker) originOf(id *ast.Ident, stack []ast.Node) origin {
	obj := c.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return 0
	}
	fd := enclosingFunc(stack)
	if fd == nil {
		return 0
	}
	return c.builtSet(fd)[obj]
}

func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// builtSet computes (and caches) the origin of the function's local
// variables: built for idents assigned from a composite literal, a
// &composite literal, a constructor-shaped call (New*, Copy), a call
// whose receiver is itself locally built, or an owned record handed out
// by a clone; cloned for idents assigned from a Clone() call; either for
// an alias of such an ident. One forward pass in source order resolves
// the def-before-use chains that occur in practice.
func (c *checker) builtSet(fd *ast.FuncDecl) map[types.Object]origin {
	if s, ok := c.built[fd]; ok {
		return s
	}
	s := make(map[types.Object]origin)
	c.built[fd] = s
	if fd.Body == nil {
		return s
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			// Tuple form (c, err := NewX()) classifies the single RHS
			// for every LHS.
			rhs := as.Rhs[0]
			if len(as.Lhs) == len(as.Rhs) {
				rhs = as.Rhs[i]
			}
			if o := c.buildsValue(rhs, s); o != 0 {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
					s[obj] = o
				}
			}
		}
		return true
	})
	return s
}

func (c *checker) buildsValue(e ast.Expr, origins map[types.Object]origin) origin {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return built
	case *ast.UnaryExpr:
		if _, lit := ast.Unparen(x.X).(*ast.CompositeLit); lit {
			return built
		}
	case *ast.Ident:
		if obj := c.pass.TypesInfo.ObjectOf(x); obj != nil {
			return origins[obj]
		}
	case *ast.CallExpr:
		name := calleeName(x)
		if constructorName(name) {
			return built
		}
		if name == "Clone" {
			return cloned
		}
		// An accessor on a value this function built returns
		// pre-publication interior state; on a clone only the records its
		// AddAgent/AddProduct hand out are its own.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if root := rootIdent(sel.X); root != nil {
				if obj := c.pass.TypesInfo.ObjectOf(root); obj != nil {
					if o := origins[obj]; o == built || (o == cloned && ownedRecord(name)) {
						return built
					}
				}
			}
		}
	}
	return 0
}

// constructorName matches the naming conventions that signal "returns
// a value the caller now owns": New*/new*, Generate*/generate*, Copy.
func constructorName(name string) bool {
	for _, p := range []string{"New", "new", "Generate", "generate"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return name == "Copy"
}

// ownedRecord names the Community methods that return a record the
// receiving generation owns (it copied a shared one first).
func ownedRecord(name string) bool { return name == "AddAgent" || name == "AddProduct" }

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
