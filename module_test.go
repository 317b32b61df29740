package swrec_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestModuleHasNoRequirements holds the module to what README and
// DESIGN.md §3 say it is: stdlib-only. go.mod has no require or replace
// directive and there is no vendor tree. (bench/ is a module of its own
// and requires this one.)
func TestModuleHasNoRequirements(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "//")
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "require" || f[0] == "replace") {
			t.Errorf("go.mod:%d: %s directive: the module must build from the standard library alone", i+1, f[0])
		}
	}
	if _, err := os.Stat("vendor"); err == nil {
		t.Error("vendor/ exists: the module has nothing to vendor")
	}
}

// moduleMapRow matches a row of DESIGN.md §3's module map and captures
// its first cell's backticked path.
var moduleMapRow = regexp.MustCompile("^\\| `([^`]+)`")

// TestModuleMapListsEveryPackage holds DESIGN.md §3's module map to the
// tree: one row per directory directly under internal/, cmd/ and
// examples/, and no row for a directory that does not exist there.
func TestModuleMapListsEveryPackage(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	rows := make(map[string]int)
	for _, line := range strings.Split(section, "\n") {
		if m := moduleMapRow.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}
	var dirs []string
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, parent+"/"+e.Name())
			}
		}
	}
	for _, d := range dirs {
		if n := rows[d]; n != 1 {
			t.Errorf("DESIGN.md §3 has %d rows for %s, want 1", n, d)
		}
	}
	for row := range rows {
		under := strings.HasPrefix(row, "internal/") || strings.HasPrefix(row, "cmd/") || strings.HasPrefix(row, "examples/")
		if under && !slices.Contains(dirs, row) {
			t.Errorf("DESIGN.md §3 has a row for %s, which is not a directory directly under internal/, cmd/ or examples/", row)
		}
	}
}

// makeTarget matches a rule line of the Makefile and captures its
// target; makeCommand matches a backticked `make <target>` in the docs.
var (
	makeTarget  = regexp.MustCompile(`(?m)^([A-Za-z0-9_./-]+):([^=]|$)`)
	makeCommand = regexp.MustCompile("`make ([A-Za-z0-9_./-]+)[^`]*`")
)

// TestDocsNameMakeTargets holds README.md and DESIGN.md to the Makefile:
// every backticked `make <target>` names a target it defines.
func TestDocsNameMakeTargets(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range makeTarget.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range makeCommand.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` names no Makefile target", doc, i+1, m[1])
				}
			}
		}
	}
}
