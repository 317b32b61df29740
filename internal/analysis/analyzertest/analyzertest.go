// Package analyzertest is a hermetic, dependency-free reimplementation
// of the golang.org/x/tools analysistest harness. The real harness
// sits on go/packages, which the toolchain does not vendor for vet;
// this one loads fixtures with go/parser + go/types and a testdata-only
// importer, so analyzer tests run offline with no module downloads.
//
// Layout mirrors analysistest: Run(t, a, "pkgname") type-checks every
// .go file under testdata/src/pkgname (relative to the test's working
// directory), runs a's Requires closure and then a itself, and matches
// each diagnostic against `// want "regexp"` (or backquoted)
// annotations on the same line. Unmatched diagnostics and unmatched
// want annotations both fail the test.
//
// Imports inside fixtures resolve exclusively against testdata/src:
// fixtures ship small stubs for the stdlib slices they touch (context,
// sync, time, math/rand, fmt, expvar, swrec/internal/model, ...).
// Type identity in go/types is path-based, so a stub `package model`
// under testdata/src/swrec/internal/model is indistinguishable from
// the real one as far as the analyzers are concerned — and keeps the
// fixtures fast and self-contained.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads testdata/src/<pkgpath>, applies a (and its Requires
// closure), and asserts the diagnostics match the fixture's // want
// annotations.
func Run(t *testing.T, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analyzertest: %v", err)
	}
	ld := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loaded),
	}
	lp, err := ld.load(pkgpath)
	if err != nil {
		t.Fatalf("analyzertest: loading %s: %v", pkgpath, err)
	}

	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	if err := runWithDeps(a, lp, ld.fset, report, make(map[*analysis.Analyzer]any)); err != nil {
		t.Fatalf("analyzertest: running %s: %v", a.Name, err)
	}
	check(t, a, ld.fset, lp.files, diags)
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader resolves import paths strictly under testdata/src, with a
// source-importer fallback for any stdlib package a fixture does not
// stub.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*loaded
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	lp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		// Not stubbed: fall back to type-checking the real stdlib
		// package from GOROOT source (offline, no modules).
		if l.std == nil {
			l.std = importer.ForCompiler(l.fset, "source", nil)
		}
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, fmt.Errorf("import %q: not under testdata/src and not importable from GOROOT: %v", path, err)
		}
		lp := &loaded{pkg: pkg}
		l.pkgs[path] = lp
		return lp, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files under %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loaded{pkg: pkg, files: files, info: info}
	l.pkgs[path] = lp
	return lp, nil
}

// runWithDeps executes a's Requires closure depth-first, then a,
// sharing one results map; only a's own diagnostics reach report, as
// under go vet, where a prerequisite's diagnostics are dropped.
func runWithDeps(a *analysis.Analyzer, lp *loaded, fset *token.FileSet, report func(analysis.Diagnostic), results map[*analysis.Analyzer]any) error {
	if _, done := results[a]; done {
		return nil
	}
	for _, dep := range a.Requires {
		if err := runWithDeps(dep, lp, fset, func(analysis.Diagnostic) {}, results); err != nil {
			return err
		}
	}
	pass := &analysis.Pass{
		Analyzer:          a,
		Fset:              fset,
		Files:             lp.files,
		Pkg:               lp.pkg,
		TypesInfo:         lp.info,
		TypesSizes:        types.SizesFor("gc", "amd64"),
		ResultOf:          results,
		Report:            report,
		ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
		ExportObjectFact:  func(types.Object, analysis.Fact) {},
		ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
		ExportPackageFact: func(analysis.Fact) {},
		AllObjectFacts:    func() []analysis.ObjectFact { return nil },
		AllPackageFacts:   func() []analysis.PackageFact { return nil },
		ReadFile:          os.ReadFile,
	}
	res, err := a.Run(pass)
	if err != nil {
		return fmt.Errorf("%s: %v", a.Name, err)
	}
	if a.ResultType != nil && reflect.TypeOf(res) != a.ResultType {
		return fmt.Errorf("%s: result of type %v, declared %v", a.Name, reflect.TypeOf(res), a.ResultType)
	}
	results[a] = res
	return nil
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

type wantAnn struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// check compares diagnostics against the fixtures' want annotations.
func check(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*wantAnn
	for _, f := range files {
		filename := fset.Position(f.Package).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat == "" {
					pat = m[2]
				} else {
					pat = strings.ReplaceAll(pat, `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", filename, pat, err)
				}
				wants = append(wants, &wantAnn{
					file: filename,
					line: fset.Position(c.Pos()).Line,
					re:   re,
					raw:  pat,
				})
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		var hit *wantAnn
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic from %s: %s", pos, a.Name, d.Message)
			continue
		}
		hit.matched = true
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
