package boundedmake_test

import (
	"testing"

	"swrec/internal/analysis/analyzertest"
	"swrec/internal/analysis/boundedmake"
)

// TestDecodePath checks both directions inside a decode package:
// count()-validated, limit-compared, and len()-derived sizes are
// silent; raw wire counts — including the laundered accumulator and the
// unchecked capacity argument — are reported.
func TestDecodePath(t *testing.T) {
	analyzertest.Run(t, boundedmake.Analyzer, "swrec/internal/checkpoint")
}

// TestOutOfScope guards the false-positive direction: packages outside
// the decode list are never reported.
func TestOutOfScope(t *testing.T) {
	analyzertest.Run(t, boundedmake.Analyzer, "swrec/internal/other")
}

// TestQueryParameters covers the HTTP layer: a parsed query parameter
// sizing a make is reported; one clamped by builtin min against data
// already in memory, directly or through a variable, is silent; the min
// of two parameters is still a parameter.
func TestQueryParameters(t *testing.T) {
	analyzertest.Run(t, boundedmake.Analyzer, "swrec/internal/api")
}

// TestCrawledBytes covers the parsers of crawled documents: a count read
// from a fetched page sizing a make is reported; one clamped by the
// page's own length is silent.
func TestCrawledBytes(t *testing.T) {
	analyzertest.Run(t, boundedmake.Analyzer, "swrec/internal/weblog")
}
