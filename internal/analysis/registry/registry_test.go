package registry_test

import (
	"testing"

	"swrec/internal/analysis/analyzertest"
	"swrec/internal/analysis/registry"
)

// TestNolint covers every verdict of the nolint pass in a package
// detrand runs on: live line, next-line and file-scoped directives are
// silent; stale ones, one naming an unregistered analyzer, and one
// naming an analyzer that does not run on the package are reported;
// unjustified directives and those in _test.go files are not audited.
func TestNolint(t *testing.T) {
	analyzertest.Run(t, registry.Nolint, "swrec/internal/experiments")
}

// TestNolintOutOfScope: a directive in a package its analyzer does not
// run on is stale, even over code the analyzer would flag elsewhere.
func TestNolintOutOfScope(t *testing.T) {
	analyzertest.Run(t, registry.Nolint, "swrec/internal/weblog")
}
