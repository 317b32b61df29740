package metrics

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyMetricsImportsExpvar walks the module's non-test Go files and
// fails on any outside this package that imports expvar. Every published
// name is then "swrec_"+name by construction (NewMap), including names
// built at run time, which no check of literal arguments could see.
func TestOnlyMetricsImportsExpvar(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self := filepath.Join(root, "internal", "metrics")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == root:
				return nil
			case name == "vendor" || name == "testdata" || strings.HasPrefix(name, "."):
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == self {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "expvar" {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s imports expvar: publish through swrec/internal/metrics", rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d files under %s, want the whole module", files, root)
	}
}
