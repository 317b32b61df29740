package api

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServingImportBoundary walks the non-test import closure of this
// package from source (go/build, nothing executed) and pins two
// boundaries of the profile layer: the serving code never reaches the
// map-backed sparse vectors, which remain for the stereotype model and as
// the tests' oracle, and profmat — rows, matrix, kernels — knows nothing
// of the Eq. 3 loop that fills its rows.
func TestServingImportBoundary(t *testing.T) {
	const module = "swrec"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	imports := func(path string) []string {
		t.Helper()
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module)))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return pkg.Imports
	}
	local := func(path string) bool { return path == module || strings.HasPrefix(path, module+"/") }

	seen := map[string]string{module + "/internal/api": ""} // package → an importer
	queue := []string{module + "/internal/api"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, imp := range imports(path) {
			if _, ok := seen[imp]; ok || !local(imp) {
				continue
			}
			seen[imp] = path
			queue = append(queue, imp)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("the closure holds %d packages; the walk is not following imports", len(seen))
	}
	if by, ok := seen[module+"/internal/sparse"]; ok {
		chain := []string{module + "/internal/sparse"}
		for p := by; p != ""; p = seen[p] {
			chain = append(chain, p)
		}
		slices.Reverse(chain)
		t.Errorf("the serving closure reaches internal/sparse: %s", strings.Join(chain, " → "))
	}
	if slices.Contains(imports(module+"/internal/profmat"), module+"/internal/profile") {
		t.Error("internal/profmat imports internal/profile")
	}
}
