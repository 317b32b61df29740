// Package hotalloc machine-checks the zero-allocation claims of the
// compiled serving substrate: a function whose doc comment carries the
// //swrec:hotpath directive — the profmat merge-join and dense-scatter
// kernels, the engine's warm cache-read path, the loadgen histogram
// record path — must not heap-allocate, and neither may any same-package
// function it (transitively) calls. The "zero allocations" comments
// those kernels were born with (PR 5) are enforced here as facts rather
// than re-measured by benchmarks alone: a benchmark catches a regression
// only at the scale it runs, while the analyzer catches the allocating
// construct itself.
//
// The checker flags the constructs that the gc compiler lowers to a heap
// allocation (or that may allocate on growth):
//
//   - make, new, and slice/map composite literals; &T{...}
//   - append (backing-array growth) and map-index writes (bucket growth)
//   - string concatenation and string <-> []byte / []rune conversions
//   - boxing a non-pointer-shaped concrete value into an interface
//     (arguments, assignments, returns, conversions)
//   - function literals (closure capture), method values, go statements
//   - any call into package fmt (formatting reflects and allocates)
//   - calling a variadic function with arguments (the ... slice)
//
// This is the go/ast + go/types approximation of the SSA formulation:
// without escape analysis it cannot prove a composite literal escapes,
// so plain struct value literals and stack-returnable values are
// allowed, and calls into other packages are trusted (their own hot
// functions carry their own annotations). The approximation errs on the
// side of flagging; a deliberate amortized allocation (a lazy one-time
// make, a cold error path) documents itself with a justified
// //nolint:hotalloc -- reason, which is the audit trail the analyzer
// exists to force.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"swrec/internal/analysis/lintutil"
)

const doc = `reports heap allocations in //swrec:hotpath functions and their same-package callees

A function marked //swrec:hotpath (profmat kernels, engine warm reads,
loadgen histogram records) claims zero allocations per call. hotalloc
flags every construct the compiler lowers to a heap allocation inside
the marked function and every same-package function it calls. Justify
deliberate amortized allocations with //nolint:hotalloc -- reason.`

// Directive marks a function as allocation-free hot-path code.
const Directive = "//swrec:hotpath"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name:       "hotalloc",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	Run:        run,
	ResultType: lintutil.ResultType,
}

// hotFunc records how a function entered the hot set: directly
// annotated (root == "") or reached from an annotated root.
type hotFunc struct {
	decl *ast.FuncDecl
	root string
}

func run(pass *analysis.Pass) (any, error) {
	sup := lintutil.New(pass)

	// Index this package's function declarations and find the annotated
	// roots. Test files are exempt wholesale: benchmarks and fixtures
	// allocate freely.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if annotated(fd) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return sup, nil
	}

	// Close the hot set over same-package static calls: a kernel is only
	// allocation-free if its helpers are. Cross-package callees are
	// trusted — they annotate their own hot paths.
	hot := make(map[*types.Func]hotFunc)
	var work []*types.Func
	for _, fn := range roots {
		hot[fn] = hotFunc{decl: decls[fn]}
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		h := hot[fn]
		root := h.root
		if root == "" {
			root = fn.Name()
		}
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass, call)
			if callee == nil {
				return true
			}
			if fd, ok := decls[callee]; ok {
				if _, seen := hot[callee]; !seen {
					hot[callee] = hotFunc{decl: fd, root: root}
					work = append(work, callee)
				}
			}
			return true
		})
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeFilter := []ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.CompositeLit)(nil),
		(*ast.UnaryExpr)(nil),
		(*ast.FuncLit)(nil),
		(*ast.GoStmt)(nil),
		(*ast.BinaryExpr)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.ValueSpec)(nil),
		(*ast.ReturnStmt)(nil),
	}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		h, where, ok := enclosingHot(pass, hot, stack)
		if !ok {
			return true
		}
		c := &checker{pass: pass, sup: sup, where: where}
		switch node := n.(type) {
		case *ast.CallExpr:
			c.call(node)
		case *ast.CompositeLit:
			c.compositeLit(node)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if lit, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					c.report(node.Pos(), "&"+typeName(pass, lit)+"{...} allocates")
				}
			}
		case *ast.FuncLit:
			c.report(node.Pos(), "function literal allocates a closure")
		case *ast.GoStmt:
			c.report(node.Pos(), "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isString(pass, node) {
				c.report(node.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			c.assign(node)
		case *ast.ValueSpec:
			c.valueSpec(node)
		case *ast.ReturnStmt:
			c.returnStmt(node, stack, h)
		}
		return true
	})
	return sup, nil
}

// annotated reports whether the declaration's doc comment carries the
// //swrec:hotpath directive.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == Directive ||
			strings.HasPrefix(strings.TrimSpace(c.Text), Directive+" ") {
			return true
		}
	}
	return false
}

// enclosingHot resolves the FuncDecl a node lives in and reports
// whether it belongs to the hot set, along with the human-readable
// provenance used in diagnostics.
func enclosingHot(pass *analysis.Pass, hot map[*types.Func]hotFunc, stack []ast.Node) (hotFunc, string, bool) {
	for _, n := range stack {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return hotFunc{}, "", false
		}
		h, ok := hot[fn]
		if !ok {
			return hotFunc{}, "", false
		}
		where := "in " + Directive + " " + fn.Name()
		if h.root != "" {
			where = "in " + fn.Name() + " (reached from " + Directive + " " + h.root + ")"
		}
		return h, where, true
	}
	return hotFunc{}, "", false
}

// staticCallee resolves a call to the *types.Func it statically invokes
// (generic instances normalized to their origin), or nil for builtins,
// conversions, function-typed variables, and interface dispatch.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// checker reports allocation sites with shared provenance context.
type checker struct {
	pass  *analysis.Pass
	sup   *lintutil.Suppressions
	where string
}

func (c *checker) report(pos token.Pos, what string) {
	c.sup.Report(pos, what+" "+c.where+" — hoist it out of the hot path, reuse a buffer, or justify with //nolint:hotalloc -- reason")
}

// call checks one call expression: builtins that allocate, conversions,
// fmt, interface-boxing arguments, and variadic argument slices.
func (c *checker) call(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversion T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.conversion(tv.Type, call)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.report(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	// Calls into package fmt.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			c.report(call.Pos(), "fmt."+fn.Name()+" reflects and allocates")
			return
		}
	}

	sig, ok := typeAsSignature(info.Types[call.Fun].Type)
	if !ok {
		return
	}
	// Interface boxing at argument positions.
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type() // x... passes the slice through
				}
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.boxing(arg, pt, "argument")
		}
	}
	// A variadic call with arguments allocates the ... backing slice.
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		c.report(call.Pos(), "variadic call allocates its argument slice")
	}
}

// conversion flags string <-> byte/rune-slice conversions and
// conversions that box a concrete value into an interface.
func (c *checker) conversion(to types.Type, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	fromTV, ok := c.pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	from := fromTV.Type
	switch {
	case isStringType(to) && isByteOrRuneSlice(from):
		c.report(call.Pos(), "[]byte/[]rune-to-string conversion allocates")
	case isByteOrRuneSlice(to) && isStringType(from):
		c.report(call.Pos(), "string-to-[]byte/[]rune conversion allocates")
	default:
		c.boxing(call.Args[0], to, "conversion")
	}
}

// assign checks map-index writes, string +=, and interface boxing on
// plain assignments.
func (c *checker) assign(as *ast.AssignStmt) {
	info := c.pass.TypesInfo
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if tv, ok := info.Types[ix.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					c.report(lhs.Pos(), "map write may allocate (bucket growth)")
				}
			}
		}
	}
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isString(c.pass, as.Lhs[0]) {
		c.report(as.Pos(), "string concatenation allocates")
	}
	if (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) && len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			lt, ok := info.Types[lhs]
			if !ok && as.Tok == token.DEFINE {
				continue // x := concrete — x takes the concrete type, no boxing
			}
			if ok {
				c.boxing(as.Rhs[i], lt.Type, "assignment")
			}
		}
	}
}

// valueSpec checks var declarations with interface-typed targets.
func (c *checker) valueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[vs.Type]
	if !ok {
		return
	}
	for _, v := range vs.Values {
		c.boxing(v, tv.Type, "assignment")
	}
}

// returnStmt checks interface boxing against the innermost enclosing
// function's result types.
func (c *checker) returnStmt(ret *ast.ReturnStmt, stack []ast.Node, h hotFunc) {
	sig := enclosingSignature(c.pass, stack, h)
	if sig == nil {
		return
	}
	res := sig.Results()
	if len(ret.Results) != res.Len() {
		return // naked return or comma-ok spread: nothing new is boxed here
	}
	for i, r := range ret.Results {
		c.boxing(r, res.At(i).Type(), "return")
	}
}

// boxing reports expr if assigning it to a target of type to would box a
// non-pointer-shaped concrete value into an interface.
func (c *checker) boxing(expr ast.Expr, to types.Type, what string) {
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok {
		return
	}
	from := tv.Type
	if from == nil || tv.IsNil() {
		return
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries the existing box
	}
	if pointerShaped(from) {
		return // the value is the data word; no allocation
	}
	c.report(expr.Pos(), "interface "+what+" boxes a "+from.String()+" value and allocates")
}

// compositeLit flags slice and map literals; plain struct and array
// value literals are stack-constructible and allowed (the &T{...} form
// is handled at the UnaryExpr).
func (c *checker) compositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates its backing array")
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
	}
}

// enclosingSignature returns the innermost function literal's signature
// if the return sits inside one, else the hot declaration's.
func enclosingSignature(pass *analysis.Pass, stack []ast.Node, h hotFunc) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			if sig, ok := typeAsSignature(pass.TypesInfo.Types[n].Type); ok {
				return sig
			}
			return nil
		case *ast.FuncDecl:
			if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
				if sig, ok := typeAsSignature(fn.Type()); ok {
					return sig
				}
			}
			return nil
		}
	}
	return nil
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func typeName(pass *analysis.Pass, lit *ast.CompositeLit) string {
	if tv, ok := pass.TypesInfo.Types[lit]; ok {
		if named, ok := tv.Type.(*types.Named); ok {
			return named.Obj().Name()
		}
		return tv.Type.String()
	}
	return "T"
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isStringType(tv.Type)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether a value of type t fits the interface
// data word directly, so boxing it does not allocate.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
