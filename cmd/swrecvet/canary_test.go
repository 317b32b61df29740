package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"swrec/internal/analysis/registry"
)

// canary is a one-line edit of a real file in this repository that one
// analyzer, and only that one, must catch: old occurs exactly once in
// file and is replaced by new through a go vet -overlay, so the tree on
// disk is never touched.
type canary struct {
	file     string // relative to the module root
	old, new string
}

// canaries holds one recorded edit per registered analyzer. Each is the
// bug its analyzer exists for, planted where the invariant holds today.
// snapshotfreeze and snapshotpin guard the two sides of one epoch
// contract, and their canaries show that neither subsumes the other: a
// write through a published agent is not a retained field, and a
// retained snapshot field is not a write.
var canaries = map[string]canary{
	// A decoded count sizes an allocation before any bounds check.
	"boundedmake": {"internal/checkpoint/decode.go",
		`parents := make([]taxonomy.Topic, n)`,
		`parents := make([]taxonomy.Topic, d.uv())`},
	// A cold path drops the request deadline.
	"ctxflow": {"internal/engine/engine.go",
		`rec.RankedPeersCtx(fctx, a.ID)`,
		`rec.RankedPeersCtx(context.Background(), a.ID)`},
	// The seeded generator reaches for the global one.
	"detrand": {"internal/datagen/datagen.go",
		`k := rng.Intn(cfg.Clusters)`,
		`k := rand.Intn(cfg.Clusters)`},
	// A log acknowledges a sync it never checked.
	"durableerr": {"internal/frame/frame.go",
		`func (t *Tail) Sync() error { return t.f.Sync() }`,
		`func (t *Tail) Sync() error { t.f.Sync(); return nil }`},
	// A carried cache entry is filled by a goroutine nothing waits for.
	"goleak": {"internal/engine/engine.go",
		`s.peers.add(e.key, e.val)`,
		`go s.peers.add(e.key, e.val)`},
	// The dense-scatter cosine copies its image on every call.
	"hotalloc": {"internal/profmat/profmat.go",
		`vals := s.vals`,
		`vals := append([]float64(nil), s.vals...)`},
	// A suppression outlives the wall-clock read it excused.
	"nolint": {"internal/experiments/experiments.go",
		`start := time.Now() //nolint:detrand`,
		`start := time.Time{} //nolint:detrand`},
	// A read path writes into a published agent's rating row.
	"snapshotfreeze": {"internal/strategy/popularity.go",
		`touched = core.TouchedTopics(comm, active)`,
		`touched = core.TouchedTopics(comm, active); active.RatedProducts()[0].Val = 0`},
	// The API server keeps a snapshot past the request that read it.
	"snapshotpin": {"internal/api/api.go",
		`writer Writer // nil = read-only surface`,
		`writer Writer; snap *engine.Snapshot // nil = read-only surface`},
	// Appleseed indexes its nodes by URI beside the ordinal tables.
	"urikey": {"internal/trust/appleseed.go",
		`[]bool // by node: out-edges expanded`,
		`[]bool; byURI map[model.AgentID]int32 // by node: out-edges expanded`},
}

// TestCanaries proves every registered analyzer on the real tree: with
// its canary applied, go vet through the swrecvet binary reports exactly
// one diagnostic in the edited package, from that analyzer, on the
// edited line.
func TestCanaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds swrecvet and runs go vet once per analyzer")
	}
	var got []string
	for name := range canaries {
		got = append(got, name)
	}
	want := slices.Clone(registry.Names())
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("canaries for %v, registered analyzers %v: every analyzer needs exactly one", got, want)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := buildTool(t)
	for _, name := range registry.Names() {
		c := canaries[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(filepath.Join(root, c.file))
			if err != nil {
				t.Fatal(err)
			}
			old := []byte(c.old)
			if n := bytes.Count(src, old); n != 1 {
				t.Fatalf("%s holds %q %d times, want once: re-record the canary", c.file, c.old, n)
			}
			line := 1 + bytes.Count(src[:bytes.Index(src, old)], []byte("\n"))
			dir := t.TempDir()
			edited := filepath.Join(dir, filepath.Base(c.file))
			if err := os.WriteFile(edited, bytes.Replace(src, old, []byte(c.new), 1), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{
				"Replace": {filepath.Join(root, c.file): edited},
			})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "vet", "-overlay="+ov, "-vettool="+tool, "-json", "./"+filepath.Dir(c.file))
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go vet: %v\n%s", err, out)
			}
			got, err := vetDiagnostics(out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			want := fmt.Sprintf("%s %s:%d", name, filepath.Base(c.file), line)
			if len(got) != 1 || got[0] != want {
				t.Errorf("diagnostics %q, want exactly [%s]\n%s", got, want, out)
			}
		})
	}
}

// vetDiagnostics parses go vet -json output — a "# package" comment line
// before each package's JSON object, mapping package to analyzer to
// diagnostics — into "analyzer file:line" entries.
func vetDiagnostics(out []byte) ([]string, error) {
	var kept []string
	for _, l := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(l, "#") {
			kept = append(kept, l)
		}
	}
	dec := json.NewDecoder(strings.NewReader(strings.Join(kept, "\n")))
	var diags []string
	for {
		var pkgs map[string]map[string][]struct{ Posn string }
		if err := dec.Decode(&pkgs); err == io.EOF {
			return diags, nil
		} else if err != nil {
			return nil, fmt.Errorf("parse go vet -json: %w", err)
		}
		for _, analyzers := range pkgs {
			for name, ds := range analyzers {
				for _, d := range ds {
					pos := filepath.Base(d.Posn) // file.go:line:col
					diags = append(diags, name+" "+pos[:strings.LastIndex(pos, ":")])
				}
			}
		}
	}
}
