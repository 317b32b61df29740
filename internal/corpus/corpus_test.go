package corpus

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

func TestExportImportRoundTrip(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 40
	cfg.Products = 50
	comm, _ := datagen.Generate(cfg)
	dir := t.TempDir()

	if err := Export(comm, dir); err != nil {
		t.Fatal(err)
	}
	// Layout present.
	for _, f := range []string{"taxonomy.nt", "catalog.nt", "MANIFEST"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "people"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != comm.NumAgents() {
		t.Fatalf("people/ has %d files, want %d", len(entries), comm.NumAgents())
	}

	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.ComputeStats(), comm.ComputeStats(); got != want {
		t.Fatalf("stats after round trip: %+v, want %+v", got, want)
	}
	if back.Taxonomy().Len() != comm.Taxonomy().Len() {
		t.Fatal("taxonomy lost in round trip")
	}
	// Spot-check a deep value.
	for _, id := range comm.Agents() {
		for _, st := range comm.TrustStatements(comm.Agent(id)) {
			peer, v := st.Dst, st.Value
			got, ok := back.Trust(id, peer)
			if !ok || got != v {
				t.Fatalf("trust(%s,%s) = %v,%v, want %v", id, peer, got, ok, v)
			}
		}
	}
}

func TestExportIsDeterministic(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 10
	cfg.Products = 15
	comm, _ := datagen.Generate(cfg)
	d1, d2 := t.TempDir(), t.TempDir()
	if err := Export(comm, d1); err != nil {
		t.Fatal(err)
	}
	if err := Export(comm, d2); err != nil {
		t.Fatal(err)
	}
	m1, err := os.ReadFile(filepath.Join(d1, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := os.ReadFile(filepath.Join(d2, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatal("manifest not deterministic")
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(t.TempDir()); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("empty dir: got %v, want ErrNoManifest", err)
	}

	// Malformed manifest line.
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "MANIFEST"), "garbage-without-tab\n")
	if _, err := Import(dir); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("got %v, want ErrBadManifest", err)
	}

	// Path traversal in manifest is rejected.
	dir2 := t.TempDir()
	mustWrite(t, filepath.Join(dir2, "MANIFEST"), "http://x/a\t../evil.nt\n")
	if _, err := Import(dir2); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("traversal: got %v, want ErrBadManifest", err)
	}

	// Manifest points at a missing homepage.
	dir3 := t.TempDir()
	mustWrite(t, filepath.Join(dir3, "MANIFEST"), "http://x/a\tmissing.nt\n")
	if _, err := Import(dir3); err == nil {
		t.Fatal("missing homepage accepted")
	}

	// Homepage claiming a different identity than the manifest.
	dir4 := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir4, "people"), 0o755); err != nil {
		t.Fatal(err)
	}
	spoof := `<http://x/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .` + "\n"
	mustWrite(t, filepath.Join(dir4, "people", "f.nt"), spoof)
	mustWrite(t, filepath.Join(dir4, "MANIFEST"), "http://x/a\tf.nt\n")
	if _, err := Import(dir4); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("spoofed homepage: got %v", err)
	}
}

func TestImportWithoutGlobals(t *testing.T) {
	// A corpus without taxonomy/catalog (pure trust network) imports.
	comm := model.NewCommunity(nil)
	if err := comm.SetTrust("http://x/a", "http://x/b", 0.5); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(comm, dir); err != nil {
		t.Fatal(err)
	}
	// Export writes no taxonomy for taxonomy-less communities.
	if _, err := os.Stat(filepath.Join(dir, "taxonomy.nt")); !os.IsNotExist(err) {
		t.Fatal("unexpected taxonomy.nt")
	}
	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Trust("http://x/a", "http://x/b"); !ok || v != 0.5 {
		t.Fatalf("trust = %v,%v", v, ok)
	}
}

func TestExportErrors(t *testing.T) {
	comm := model.NewCommunity(nil)
	comm.AddAgent("http://x/a")
	// Export into a path whose parent is a file.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	mustWrite(t, blocker, "i am a file")
	if err := Export(comm, filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("export under a file accepted")
	}
}

func TestImportCorruptGlobals(t *testing.T) {
	// Corrupt taxonomy document.
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "people"), 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(dir, "MANIFEST"), "")
	mustWrite(t, filepath.Join(dir, "taxonomy.nt"), "not rdf at all")
	if _, err := Import(dir); err == nil {
		t.Fatal("corrupt taxonomy accepted")
	}

	// Valid-RDF taxonomy that is not a taxonomy document.
	mustWrite(t, filepath.Join(dir, "taxonomy.nt"),
		"<http://x/a> <http://x/p> <http://x/b> .\n")
	if _, err := Import(dir); err == nil {
		t.Fatal("non-taxonomy document accepted")
	}

	// Corrupt catalog.
	dir2 := t.TempDir()
	mustWrite(t, filepath.Join(dir2, "MANIFEST"), "")
	mustWrite(t, filepath.Join(dir2, "catalog.nt"), "garbage {{{")
	if _, err := Import(dir2); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestImportCorruptHomepage(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "people"), 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(dir, "people", "a.nt"), "not rdf")
	mustWrite(t, filepath.Join(dir, "MANIFEST"), "http://x/a\ta.nt\n")
	if _, err := Import(dir); err == nil {
		t.Fatal("corrupt homepage accepted")
	}
	// RDF but no foaf:Person.
	mustWrite(t, filepath.Join(dir, "people", "a.nt"),
		"<http://x/a> <http://x/p> <http://x/b> .\n")
	if _, err := Import(dir); err == nil {
		t.Fatal("personless homepage accepted")
	}
}

func TestImportSkipsBlankManifestLines(t *testing.T) {
	comm := model.NewCommunity(nil)
	if err := comm.SetTrust("http://x/a", "http://x/b", 0.5); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(comm, dir); err != nil {
		t.Fatal(err)
	}
	// Append blank lines to the manifest; import must tolerate them.
	m, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(dir, "MANIFEST"), string(m)+"\n\n  \n")
	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumAgents() != comm.NumAgents() {
		t.Fatal("blank manifest lines broke import")
	}
}

func TestFileNameStableAndDistinct(t *testing.T) {
	a := fileName("http://x/alice")
	if a != fileName("http://x/alice") {
		t.Fatal("fileName not stable")
	}
	if a == fileName("http://x/bob") {
		t.Fatal("fileName collision for distinct URIs")
	}
	if !strings.HasSuffix(a, ".nt") || strings.Contains(a, "/") {
		t.Fatalf("bad file name %q", a)
	}
}

// Property: export → import preserves community statistics for random
// communities, including ones with a Fig. 1 taxonomy and topic-bearing
// products.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := datagen.SmallScale()
		cfg.Seed = seed
		cfg.Agents = 15
		cfg.Products = 20
		comm, _ := datagen.Generate(cfg)
		dir, err := os.MkdirTemp("", "corpusprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		if err := Export(comm, dir); err != nil {
			return false
		}
		back, err := Import(dir)
		if err != nil {
			return false
		}
		if back.ComputeStats() != comm.ComputeStats() {
			return false
		}
		// Topic descriptors survive (resolved via the taxonomy document).
		for _, pid := range comm.Products() {
			want := comm.Product(pid).Topics
			got := back.Product(pid).Topics
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if comm.Taxonomy().QualifiedName(want[i]) != back.Taxonomy().QualifiedName(got[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFig1CorpusFixture(t *testing.T) {
	// A hand-built Example 1 community survives the corpus layer.
	tax := taxonomy.Fig1()
	comm := model.NewCommunity(tax)
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	comm.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis",
		Topics: []taxonomy.Topic{alg}})
	if err := comm.SetRating("http://x/ai", "urn:isbn:9780521386326", 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(comm, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Import(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := back.Product("urn:isbn:9780521386326")
	if p == nil || p.Title != "Matrix Analysis" {
		t.Fatal("product lost")
	}
	if back.Taxonomy().QualifiedName(p.Topics[0]) != "Books/Science/Mathematics/Pure/Algebra" {
		t.Fatal("descriptor lost")
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
