package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// toolDir holds the swrecvet binary the tests share; TestMain removes it.
var toolDir string

var buildOnce = sync.OnceValues(func() (string, error) {
	tool := filepath.Join(toolDir, "swrecvet")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("build swrecvet: %v\n%s", err, out)
	}
	return tool, nil
})

// buildTool builds swrecvet on first use and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swrecvet-test")
	if err != nil {
		panic(err)
	}
	toolDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestProtocol pins what swrecvet tells go vet, and so what go vet lets
// a caller ask of it: one flag, -json, so no invariant can be switched
// off from the command line; a -V=full line that go vet's tool-ID parse
// accepts; dependency runs that write their (empty) facts and report
// nothing; and go vet's escape hatch for packages it knows will not
// type-check.
func TestProtocol(t *testing.T) {
	tool := buildTool(t)

	t.Run("flags", func(t *testing.T) {
		out, err := exec.Command(tool, "-flags").Output()
		if err != nil {
			t.Fatal(err)
		}
		var flags []struct{ Name string }
		if err := json.Unmarshal(out, &flags); err != nil {
			t.Fatalf("-flags: %v\n%s", err, out)
		}
		if len(flags) != 1 || flags[0].Name != "json" {
			t.Errorf("-flags lists %+v, want exactly json", flags)
		}
	})

	t.Run("no-analyzer-flag", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, "-detrand=false", "./internal/datagen/")
		cmd.Dir = filepath.Join("..", "..")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -detrand") {
			t.Errorf("go vet -detrand=false: %v, want go vet's unknown-flag error\n%s", err, out)
		}
	})

	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(tool, "-V=full").Output()
		if err != nil {
			t.Fatal(err)
		}
		// cmd/go/internal/work.(*Builder).toolID's rule for a -vettool.
		f := strings.Fields(string(out))
		if len(f) < 3 || f[1] != "version" || f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
			t.Errorf("-V=full printed %q: go vet cannot parse a build ID from it", out)
		}
	})

	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\n\nvar x int = \"not an int\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// runCfg runs the tool on a config for the ill-typed package p.
	runCfg := func(t *testing.T, cfg map[string]any) (vetx string, out []byte, err error) {
		vetx = filepath.Join(t.TempDir(), "vet.out")
		cfg["ID"], cfg["Compiler"], cfg["ImportPath"] = "p", "gc", "p"
		cfg["GoFiles"], cfg["VetxOutput"] = []string{src}, vetx
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(t.TempDir(), "vet.cfg")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err = exec.Command(tool, file).CombinedOutput()
		return vetx, out, err
	}

	t.Run("vetx-only", func(t *testing.T) {
		vetx, out, err := runCfg(t, map[string]any{"VetxOnly": true})
		if err != nil || len(out) > 0 {
			t.Errorf("VetxOnly run: %v, output %q; want success and no output", err, out)
		}
		if _, err := os.Stat(vetx); err != nil {
			t.Errorf("VetxOnly run wrote no VetxOutput: %v", err)
		}
	})

	t.Run("typecheck-failure", func(t *testing.T) {
		if _, out, err := runCfg(t, map[string]any{"SucceedOnTypecheckFailure": true}); err != nil {
			t.Errorf("SucceedOnTypecheckFailure run: %v, want exit 0\n%s", err, out)
		}
		if _, out, err := runCfg(t, map[string]any{}); err == nil || !strings.Contains(string(out), "p.go:3") {
			t.Errorf("ill-typed run: %v, want a failure naming p.go:3\n%s", err, out)
		}
	})
}
