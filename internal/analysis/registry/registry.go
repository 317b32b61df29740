// Package registry is the single source of truth for the swrecvet
// analyzer suite. cmd/swrecvet registers exactly this set with the
// unitchecker, and the cmd/swrecvet tests pin it and prove each member
// on the real tree — extending the suite is a deliberate, reviewed act
// that shows up in both places at once.
//
// The suite ends in the nolint pass, which audits the suppression
// comments of each package in the same go vet run that produces the
// diagnostics: a justified //nolint or //swrecvet:disable directive is
// stale when it names no registered analyzer, or when the analyzer it
// names covered no diagnostic under it in that package — the code it
// excused has moved or been fixed, or the package left the analyzer's
// scope. A stale directive is deleted before it silences a future,
// different violation on the same line.
package registry

import (
	"slices"

	"golang.org/x/tools/go/analysis"

	"swrec/internal/analysis/boundedmake"
	"swrec/internal/analysis/ctxflow"
	"swrec/internal/analysis/detrand"
	"swrec/internal/analysis/durableerr"
	"swrec/internal/analysis/expvarname"
	"swrec/internal/analysis/goleak"
	"swrec/internal/analysis/hotalloc"
	"swrec/internal/analysis/lintutil"
	"swrec/internal/analysis/snapshotfreeze"
	"swrec/internal/analysis/snapshotpin"
	"swrec/internal/analysis/urikey"
)

// invariants are the analyzers a suppression may name, sorted by name.
var invariants = []*analysis.Analyzer{
	boundedmake.Analyzer,
	ctxflow.Analyzer,
	detrand.Analyzer,
	durableerr.Analyzer,
	expvarname.Analyzer,
	goleak.Analyzer,
	hotalloc.Analyzer,
	snapshotfreeze.Analyzer,
	snapshotpin.Analyzer,
	urikey.Analyzer,
}

// Nolint is the stale-suppression pass. It requires every invariant
// analyzer and reads the *lintutil.Suppressions each one returns.
var Nolint = &analysis.Analyzer{
	Name: "nolint",
	Doc: `reports stale suppression comments

A justified //nolint:<analyzer> -- reason (its line and the next) or
//swrecvet:disable <analyzer> -- reason (the whole file) is stale when
<analyzer> is not registered, does not run on the package, or reported
nothing under it. Delete it. Unjustified directives are inert and
_test.go files are out of scope, so neither is audited.`,
	Requires: invariants,
	Run:      runNolint,
}

// all is the full suite: the invariants, then the nolint pass.
var all = append(slices.Clip(invariants), Nolint)

// All returns the registered analyzers: the invariants in name order,
// then the nolint pass. The slice is shared; callers must not modify it.
func All() []*analysis.Analyzer { return all }

// Names returns the registered analyzer names in All's order.
func Names() []string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

func runNolint(pass *analysis.Pass) (any, error) {
	sups := make(map[string]*lintutil.Suppressions, len(pass.Analyzer.Requires))
	for _, a := range pass.Analyzer.Requires {
		sups[a.Name] = pass.ResultOf[a].(*lintutil.Suppressions)
	}
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass, f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := lintutil.ParseDirective(c.Text)
				if !ok || !d.Justified {
					continue
				}
				for _, name := range d.Analyzers {
					sup, known := sups[name]
					switch {
					case !known:
						pass.Reportf(c.Pos(), "stale suppression: analyzer %q is not registered", name)
					case sup == nil:
						pass.Reportf(c.Pos(), "stale suppression: %s does not run on package %s", name, pass.Pkg.Path())
					case !sup.Covered(c.Pos()) && d.FileScoped:
						pass.Reportf(c.Pos(), "stale suppression: no %s diagnostic fires anywhere in the file", name)
					case !sup.Covered(c.Pos()):
						pass.Reportf(c.Pos(), "stale suppression: no %s diagnostic fires on its line or the next", name)
					}
				}
			}
		}
	}
	return nil, nil
}
