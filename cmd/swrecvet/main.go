// Command swrecvet is the swrec invariant checker: a go/analysis
// multichecker bundling the project-specific analyzers from
// internal/analysis. It is built to be driven by the go command:
//
//	go build -o bin/swrecvet ./cmd/swrecvet
//	go vet -vettool=$(pwd)/bin/swrecvet ./...
//
// (or `make lint`, which does exactly that). Each analyzer encodes one
// invariant — see the DESIGN.md "Static analysis" table for the
// mapping — and supports the auditable suppression comments documented
// in internal/analysis/lintutil; the nolint pass reports every justified
// suppression that no longer covers a diagnostic. The analyzer set lives
// in internal/analysis/registry, and canary_test.go proves each member
// on a recorded one-line edit of the real tree.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"swrec/internal/analysis/registry"
)

func main() {
	unitchecker.Main(registry.All()...)
}
