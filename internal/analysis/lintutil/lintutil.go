// Package lintutil carries the plumbing shared by the swrecvet
// analyzers (internal/analysis/...): package scoping, test/generated
// file exclusion, and the auditable suppression comments.
//
// Suppression grammar — every exception must carry a justification so
// it is auditable rather than invisible:
//
//	//nolint:ctxflow -- reason the rule does not apply here
//	//nolint:ctxflow,durableerr -- reason covering both analyzers
//	//swrecvet:disable detrand -- file-scoped reason
//
// A line suppression covers diagnostics on its own line and on the
// line directly below (so it can sit above a long statement). The
// file-scoped form disables one analyzer for the whole file. A
// suppression without a "-- reason" clause is inert: the diagnostic
// still fires, which keeps unexplained exceptions visible in review.
// A justified suppression that covers no diagnostic is stale, and the
// nolint pass (internal/analysis/registry) reports it.
package lintutil

import (
	"go/ast"
	"go/token"
	"reflect"
	"regexp"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// PkgMatch reports whether path is covered by the comma-separated
// import-path prefix list in patterns: an exact match, or a match of a
// "prefix/" path segment boundary.
func PkgMatch(path, patterns string) bool {
	for _, p := range strings.Split(patterns, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// IsTestFile reports whether file was parsed from a _test.go file. The
// swrecvet invariants govern library code; tests may simulate clocks,
// drop errors, and spawn throwaway goroutines freely.
func IsTestFile(pass *analysis.Pass, file *ast.File) bool {
	name := pass.Fset.Position(file.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

var (
	nolintRe  = regexp.MustCompile(`^//\s*nolint:([a-z0-9_,\s]+?)(?:\s*--\s*(\S.*))?$`)
	disableRe = regexp.MustCompile(`^//\s*swrecvet:disable\s+([a-z0-9_,\s]+?)(?:\s*--\s*(\S.*))?$`)
)

// Directive is one parsed suppression comment.
type Directive struct {
	Analyzers  []string // analyzer names the comment suppresses
	Justified  bool     // a "-- reason" clause is present
	FileScoped bool     // swrecvet:disable form (whole file) vs nolint (line + next)
}

// ParseDirective parses one comment line ("//..." text, as in
// ast.Comment.Text) as a suppression directive. ok is false for
// ordinary comments. The match is anchored at the comment start:
// ast.Comment.Text is only the comment itself, so trailing suppressions
// sharing a line with code match directly, while prose or indented
// code-block examples that merely mention the syntax mid-comment do
// not become accidental suppressions.
func ParseDirective(text string) (d Directive, ok bool) {
	text = strings.TrimSpace(text)
	if m := disableRe.FindStringSubmatch(text); m != nil {
		return Directive{Analyzers: splitNames(m[1]), Justified: m[2] != "", FileScoped: true}, true
	}
	if m := nolintRe.FindStringSubmatch(text); m != nil {
		return Directive{Analyzers: splitNames(m[1]), Justified: m[2] != ""}, true
	}
	return Directive{}, false
}

func splitNames(list string) []string {
	var out []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Suppressions indexes the nolint / swrecvet:disable comments of one
// pass for one analyzer and records which of them covered a diagnostic.
// Build it once per Run with New, route every diagnostic through Report,
// and return it as the analyzer's result: the nolint pass
// (internal/analysis/registry) condemns every justified directive that
// covered nothing. An analyzer that does not run on a package returns a
// nil *Suppressions, which covered nothing either.
type Suppressions struct {
	pass  *analysis.Pass
	files map[string]token.Pos           // filename -> file-scoped directive
	lines map[string]map[int][]token.Pos // filename -> line -> covering line directives
	used  map[token.Pos]bool             // directives that covered a diagnostic
}

// ResultType is every analyzer's Analyzer.ResultType.
var ResultType = reflect.TypeOf((*Suppressions)(nil))

// New scans the pass's files for justified suppression comments naming
// the pass's analyzer.
func New(pass *analysis.Pass) *Suppressions {
	s := &Suppressions{
		pass:  pass,
		files: make(map[string]token.Pos),
		lines: make(map[string]map[int][]token.Pos),
		used:  make(map[token.Pos]bool),
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Package).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.record(name, c)
			}
		}
	}
	return s
}

func (s *Suppressions) record(filename string, c *ast.Comment) {
	d, ok := ParseDirective(c.Text)
	if !ok || !d.Justified || !slices.Contains(d.Analyzers, s.pass.Analyzer.Name) {
		return // ordinary comment, other analyzer, or unjustified: inert
	}
	if d.FileScoped {
		s.files[filename] = c.Pos()
		return
	}
	line := s.pass.Fset.Position(c.Pos()).Line
	if s.lines[filename] == nil {
		s.lines[filename] = make(map[int][]token.Pos)
	}
	s.lines[filename][line] = append(s.lines[filename][line], c.Pos())
	s.lines[filename][line+1] = append(s.lines[filename][line+1], c.Pos())
}

// Report emits a diagnostic at pos unless a justified suppression
// covers it, in which case every covering directive is marked used.
func (s *Suppressions) Report(pos token.Pos, msg string) {
	p := s.pass.Fset.Position(pos)
	covered := false
	for _, d := range s.lines[p.Filename][p.Line] {
		s.used[d], covered = true, true
	}
	if d, ok := s.files[p.Filename]; ok {
		s.used[d], covered = true, true
	}
	if !covered {
		s.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
	}
}

// Covered reports whether the directive comment at pos covered at
// least one diagnostic.
func (s *Suppressions) Covered(pos token.Pos) bool {
	return s != nil && s.used[pos]
}
