// Package boundedmake guards the decode paths (checkpoint, frame, wal,
// store) against allocation amplification: a length field read from a
// frame is attacker-controlled until proven otherwise, and `make` sized
// from it
// hands a corrupt or hostile record the power to demand gigabytes
// before the first payload byte is read. The durability PRs made this a
// contract — every decoded count flows through dec.count() or an
// explicit limit comparison before it sizes an allocation. The HTTP
// layer (api) is under the same rule: a query parameter is a length
// field anyone can send, and `make([]T, 0, n)` from ?n= panicked the
// profile handler on n=2^62 before the package was in scope. So are the
// parsers of crawled bytes (rdf, foaf, weblog, corpus): a crawled
// document is as hostile as a corrupt record.
//
// This is the go/ast + go/types approximation of the SSA formulation
// ("every make size dominated by a bounds check"): inside the decode
// packages, a make whose size is not a constant is reported unless
// every variable the size expression depends on is either
//
//   - assigned from a validator call (a function or method named in
//     -boundedmake.validators, dec.count by default), from len/cap, from
//     a builtin min with at least one bounded operand, or from a
//     constant expression;
//   - mentioned in a comparison inside an if statement that precedes
//     the make in source order (the dominance approximation); or
//   - an accumulator whose every addend satisfies these rules
//     (recursively, to a fixed depth).
//
// Sizes derived from len()/cap() of data already in memory are always
// fine: they cannot amplify beyond what was already read.
package boundedmake

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"swrec/internal/analysis/lintutil"
)

const doc = `reports make calls in decode paths sized from unvalidated decoded input

A length field from a frame/wal/checkpoint/store record is attacker-controlled
until it passes dec.count() or an explicit limit check. make sized from
it without that dominating check lets one corrupt record demand
gigabytes. Validate first, or justify with
//nolint:boundedmake -- reason.`

// Analyzer is the boundedmake pass.
var Analyzer = &lintutil.Analyzer{
	Name: "boundedmake",
	Doc:  doc,
	Run:  run,
}

const (
	// pkgs are the import-path prefixes whose decode paths are checked.
	pkgs = "swrec/internal/checkpoint,swrec/internal/frame,swrec/internal/wal,swrec/internal/store,swrec/internal/api,swrec/internal/rdf,swrec/internal/foaf,swrec/internal/weblog,swrec/internal/corpus"
	// validators are the function/method names whose return value
	// counts as a validated size.
	validators = "count"
)

// maxDepth bounds the recursive safety classification of accumulator
// chains.
const maxDepth = 4

func run(pass *lintutil.Pass) *lintutil.Suppressions {
	if !lintutil.PkgMatch(pass.Pkg.Path(), pkgs) {
		return nil // out of scope
	}
	sup := lintutil.New(pass)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil)}
	pass.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		if lintutil.IsTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		call := n.(*ast.CallExpr)
		if !isBuiltinCall(pass, call, "make") || len(call.Args) < 2 {
			return true
		}
		fd := enclosingFunc(stack)
		if fd == nil || fd.Body == nil {
			return true
		}
		c := &checker{pass: pass, body: fd.Body, makePos: call.Pos()}
		// Both the length and, when present, the capacity must be
		// bounded; an unchecked capacity allocates just the same.
		for _, size := range call.Args[1:] {
			if bad := c.unsafeIdent(size, maxDepth); bad != "" {
				sup.Report(call.Pos(), "make sized from "+bad+" without a dominating bounds check: a corrupt or hostile record can demand gigabytes before the first payload byte is read — run it through a validator ("+validators+") or an explicit limit comparison first, or justify with //nolint:boundedmake -- reason")
				break
			}
		}
		return true
	})
	return sup
}

type checker struct {
	pass    *lintutil.Pass
	body    *ast.BlockStmt
	makePos token.Pos
}

// unsafeIdent returns a description of the first size-expression part
// that cannot be proven bounded, or "". The walk is structural: len()
// arguments and selector bases do not influence the magnitude and are
// not descended into.
func (c *checker) unsafeIdent(size ast.Expr, depth int) string {
	size = ast.Unparen(size)
	if tv, ok := c.pass.TypesInfo.Types[size]; ok && tv.Value != nil {
		return "" // constant expression
	}
	switch x := size.(type) {
	case *ast.Ident:
		obj, ok := c.pass.TypesInfo.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if !c.validated(obj, depth) {
			return "unvalidated " + obj.Name()
		}
	case *ast.SelectorExpr:
		// A field read (h.keyLen): bounded only by a comparison on the
		// field itself; the base variable is irrelevant to magnitude.
		if obj, ok := c.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
			if !c.comparedBefore(obj) {
				return "unvalidated field " + x.Sel.Name
			}
		}
	case *ast.BinaryExpr:
		if bad := c.unsafeIdent(x.X, depth); bad != "" {
			return bad
		}
		return c.unsafeIdent(x.Y, depth)
	case *ast.UnaryExpr:
		return c.unsafeIdent(x.X, depth)
	case *ast.CallExpr:
		if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return c.unsafeIdent(x.Args[0], depth) // conversion
		}
		name := calleeName(x)
		if name == "len" || name == "cap" || nameIn(name, validators) {
			return ""
		}
		if isBuiltinCall(c.pass, x, "min") {
			// min is as bounded as its most bounded operand.
			for _, arg := range x.Args {
				if c.unsafeIdent(arg, depth) == "" {
					return ""
				}
			}
		}
		return "unvalidated " + name + "() result"
	case *ast.IndexExpr:
		// An element of a decoded slice (lens[i]) is itself decoded
		// input; a comparison covering the element expression's base
		// does not bound any single element, so require validation of
		// how the slice was filled — conservatively reported.
		return "unvalidated decoded element"
	}
	return ""
}

// validated reports whether obj is bounded at the make: compared in an
// if statement before it, or exclusively assigned from safe
// expressions before it.
func (c *checker) validated(obj *types.Var, depth int) bool {
	if depth <= 0 {
		return false
	}
	if c.comparedBefore(obj) {
		return true
	}
	assigns := c.assignmentsBefore(obj)
	if len(assigns) == 0 {
		return false // parameter or assigned only after the make
	}
	for _, rhs := range assigns {
		if !c.safeExpr(rhs, depth) {
			return false
		}
	}
	return true
}

// comparedBefore reports whether obj appears inside a comparison in an
// if statement (init or condition) whose position precedes the make —
// the positional approximation of dominance.
func (c *checker) comparedBefore(obj *types.Var) bool {
	found := false
	ast.Inspect(c.body, func(n ast.Node) bool {
		if found {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Pos() >= c.makePos {
			return true
		}
		check := func(e ast.Expr) {
			ast.Inspect(e, func(m ast.Node) bool {
				b, ok := m.(*ast.BinaryExpr)
				if !ok || !isComparison(b.Op) {
					return true
				}
				if c.mentions(b, obj) {
					found = true
				}
				return !found
			})
		}
		check(ifs.Cond)
		if ifs.Init != nil {
			ast.Inspect(ifs.Init, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					check(e)
					return false
				}
				return true
			})
		}
		return true
	})
	return found
}

func (c *checker) mentions(e ast.Expr, obj *types.Var) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
			hit = true
		}
		return !hit
	})
	return hit
}

// assignmentsBefore collects the right-hand sides of every assignment
// to obj that precedes the make, including op-assigns (+=).
func (c *checker) assignmentsBefore(obj *types.Var) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() >= c.makePos || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if c.pass.TypesInfo.Defs[id] == obj || c.pass.TypesInfo.Uses[id] == obj {
					out = append(out, n.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			// x++ adds a constant per iteration and cannot amplify on
			// its own: not recorded as an assignment.
		case *ast.ValueSpec:
			if n.Pos() >= c.makePos {
				return true
			}
			for i, name := range n.Names {
				if c.pass.TypesInfo.Defs[name] == obj && i < len(n.Values) {
					out = append(out, n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// safeExpr reports whether e can only yield a bounded value: constants,
// len/cap, validator calls, conversions/arithmetic over safe operands,
// and already-validated variables.
func (c *checker) safeExpr(e ast.Expr, depth int) bool {
	e = ast.Unparen(e)
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true // constant expression
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj, ok := c.pass.TypesInfo.Uses[x].(*types.Var)
		if !ok {
			return false
		}
		return c.validated(obj, depth-1)
	case *ast.BinaryExpr:
		return c.safeExpr(x.X, depth) && c.safeExpr(x.Y, depth)
	case *ast.CallExpr:
		if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return c.safeExpr(x.Args[0], depth) // conversion
		}
		switch name := calleeName(x); {
		case name == "len" || name == "cap":
			return true // bounded by data already in memory
		case nameIn(name, validators):
			return true
		case isBuiltinCall(c.pass, x, "min"):
			for _, arg := range x.Args {
				if c.safeExpr(arg, depth) {
					return true
				}
			}
		}
	case *ast.SelectorExpr:
		// A field read (h.keyLen) is unvalidated data flow unless a
		// comparison covers the chain's leaf — handled by the caller
		// via comparedBefore on the root variable, so reject here.
		return false
	}
	return false
}

// isBuiltinCall reports whether call invokes the named builtin (not a
// shadowing declaration).
func isBuiltinCall(pass *lintutil.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
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
