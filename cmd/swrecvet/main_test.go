package main

import (
	"testing"

	"swrec/internal/analysis/registry"
)

// TestAnalyzerSet pins the tool's registered analyzer set: the CI
// gate's strength is exactly this list, so adding or dropping an
// analyzer must be visible as a test change. That `go vet` cannot be
// told to check less is the type's doing (lintutil.Analyzer has no
// flags) and TestProtocol's.
func TestAnalyzerSet(t *testing.T) {
	want := []string{
		"boundedmake",
		"ctxflow",
		"detrand",
		"durableerr",
		"goleak",
		"hotalloc",
		"snapshotfreeze",
		"snapshotpin",
		"urikey",
		"nolint",
	}
	analyzers := registry.All()
	if len(analyzers) != len(want) {
		t.Fatalf("registered %d analyzers, want %d", len(analyzers), len(want))
	}
	seen := make(map[string]bool)
	for i, a := range analyzers {
		if a == nil {
			t.Fatalf("analyzer %d is nil", i)
		}
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q (invariants sorted, nolint last)", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestNames pins registry.Names against the analyzer list — the canary
// test derives its coverage check from it.
func TestNames(t *testing.T) {
	names := registry.Names()
	analyzers := registry.All()
	if len(names) != len(analyzers) {
		t.Fatalf("Names() has %d entries, All() has %d", len(names), len(analyzers))
	}
	for i := range names {
		if names[i] != analyzers[i].Name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], analyzers[i].Name)
		}
	}
}
