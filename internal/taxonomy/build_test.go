package taxonomy_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/taxonomy"
)

// flatten reads a taxonomy back as Build's arguments.
func flatten(tax *taxonomy.Taxonomy) (root string, names []string, parents []taxonomy.Topic) {
	for d := taxonomy.Topic(1); int(d) < tax.Len(); d++ {
		names = append(names, tax.Name(d))
		parents = append(parents, tax.Parent(d))
	}
	return tax.Name(taxonomy.Root), names, parents
}

// sameTree fails unless got is what want is, through every accessor a
// serving path reads.
func sameTree(t *testing.T, got, want *taxonomy.Taxonomy) {
	t.Helper()
	if got.Len() != want.Len() || got.Version() != want.Version() {
		t.Fatalf("len/version %d/%d, want %d/%d", got.Len(), got.Version(), want.Len(), want.Version())
	}
	for _, d := range want.Topics() {
		if got.Name(d) != want.Name(d) ||
			!reflect.DeepEqual(got.Parents(d), want.Parents(d)) ||
			!reflect.DeepEqual(got.Children(d), want.Children(d)) ||
			got.Siblings(d) != want.Siblings(d) {
			t.Fatalf("topic %d (%s) differs: parents %v/%v children %v/%v siblings %d/%d", d, want.QualifiedName(d),
				got.Parents(d), want.Parents(d), got.Children(d), want.Children(d), got.Siblings(d), want.Siblings(d))
		}
		q := want.QualifiedName(d)
		if at, ok := got.Lookup(q); !ok || at != d || got.QualifiedName(d) != q {
			t.Fatalf("Lookup(%q) = %d,%v and QualifiedName = %q, want topic %d", q, at, ok, got.QualifiedName(d), d)
		}
	}
}

// TestBuildEqualsReplayOfAdd: the one-pass constructor yields the tree a
// replay of Add yields — on Figure 1's fragment, the paper-scale book
// tree and seeded random trees — and stays an ordinary taxonomy
// afterwards: AddEdge and Add on it behave as on the replayed one.
func TestBuildEqualsReplayOfAdd(t *testing.T) {
	trees := map[string]*taxonomy.Taxonomy{
		"root-only": taxonomy.New("Books"),
		"fig1":      taxonomy.Fig1(),
		"paper":     datagen.GenerateTaxonomy(datagen.PaperScale().Taxonomy, rand.New(rand.NewSource(1))),
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tax := taxonomy.New("Root")
		for i := 0; i < 300; i++ {
			tax.MustAdd(taxonomy.Topic(rng.Intn(tax.Len())), fmt.Sprintf("t%d", rng.Intn(40))+fmt.Sprint(i))
		}
		trees[fmt.Sprintf("random-%d", seed)] = tax
	}
	for name, want := range trees {
		t.Run(name, func(t *testing.T) {
			got, err := taxonomy.Build(flatten(want))
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, got, want)
			if want.Len() < 4 {
				return
			}
			// Mutations after a Build land where they land after a replay: the
			// arena-backed lists must grow without touching a neighbour's.
			last := taxonomy.Topic(want.Len() - 1)
			for _, tax := range []*taxonomy.Taxonomy{got, want} {
				if err := tax.AddEdge(1, last); err != nil && !errors.Is(err, taxonomy.ErrCycle) {
					t.Fatal(err)
				}
				tax.MustAdd(1, "late")
				tax.MustAdd(last, "later")
			}
			sameTree(t, got, want)
		})
	}
}

// TestBuildRejectsWhatAddRejects: each fault fails Build with the error
// class the replay fails with.
func TestBuildRejectsWhatAddRejects(t *testing.T) {
	replay := func(names []string, parents []taxonomy.Topic) error {
		tax := taxonomy.New("Books")
		for i, name := range names {
			if _, err := tax.Add(parents[i], name); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		what    string
		names   []string
		parents []taxonomy.Topic
		class   error // nil: Add's unclassified "invalid topic name"
	}{
		{"forward parent", []string{"a", "b"}, []taxonomy.Topic{0, 3}, taxonomy.ErrUnknownTopic},
		{"self parent", []string{"a", "b"}, []taxonomy.Topic{0, 2}, taxonomy.ErrUnknownTopic},
		{"negative parent", []string{"a"}, []taxonomy.Topic{taxonomy.None}, taxonomy.ErrUnknownTopic},
		{"duplicate sibling", []string{"a", "b", "a"}, []taxonomy.Topic{0, 1, 0}, taxonomy.ErrDuplicate},
		{"empty name", []string{"a", ""}, []taxonomy.Topic{0, 1}, nil},
		{"slash in name", []string{"a", "b/c"}, []taxonomy.Topic{0, 0}, nil},
	} {
		want := replay(tc.names, tc.parents)
		tax, got := taxonomy.Build("Books", tc.names, tc.parents)
		if want == nil || got == nil || tax != nil {
			t.Fatalf("%s: replay %v, Build %v (taxonomy %v); both must fail", tc.what, want, got, tax)
		}
		if tc.class != nil && (!errors.Is(got, tc.class) || !errors.Is(want, tc.class)) {
			t.Fatalf("%s: Build %v, replay %v, want both %v", tc.what, got, want, tc.class)
		}
		if tc.class == nil && got.Error() != want.Error() {
			t.Fatalf("%s: Build %q, replay %q", tc.what, got, want)
		}
	}
	// The same sibling name under different parents is two topics.
	if _, err := taxonomy.Build("Books", []string{"a", "b", "x", "x"}, []taxonomy.Topic{0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := taxonomy.Build("Books", []string{"a"}, nil); err == nil {
		t.Fatal("a name without a parent was accepted")
	}
}

// namesJoinPrimaryPaths fails unless every topic's qualified name is the
// "/"-join of the names along its primary path, and resolves back to it.
func namesJoinPrimaryPaths(t *testing.T, tax *taxonomy.Taxonomy) {
	t.Helper()
	for _, d := range tax.Topics() {
		var parts []string
		for _, p := range tax.PrimaryPath(d) {
			parts = append(parts, tax.Name(p))
		}
		want := strings.Join(parts, "/")
		if got := tax.QualifiedName(d); got != want {
			t.Fatalf("QualifiedName(%d) = %q, primary path spells %q", d, got, want)
		}
		if at, ok := tax.Lookup(want); !ok || at != d {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", want, at, ok, d)
		}
	}
}

// TestQualifiedNamesJoinPrimaryPaths: the names a taxonomy keeps per
// topic are the ones its primary paths spell, however it was made — the
// Figure 1 fragment, Build, a replay of Add and AddPath — and secondary
// parents (AddEdge) change none of them. The checkpoint package checks a
// decoded one.
func TestQualifiedNamesJoinPrimaryPaths(t *testing.T) {
	paper := datagen.GenerateTaxonomy(datagen.PaperScale().Taxonomy, rand.New(rand.NewSource(1)))
	built, err := taxonomy.Build(flatten(paper))
	if err != nil {
		t.Fatal(err)
	}
	grown := taxonomy.New("Books")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			path := fmt.Sprintf("p%d/q%d/r%d", rng.Intn(4), rng.Intn(6), i)
			if _, err := grown.AddPath(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		grown.MustAdd(taxonomy.Topic(rng.Intn(grown.Len())), fmt.Sprintf("t%d", i))
	}
	for name, tax := range map[string]*taxonomy.Taxonomy{
		"fig1": taxonomy.Fig1(), "paper": paper, "build": built, "grown": grown,
	} {
		t.Run(name, func(t *testing.T) {
			namesJoinPrimaryPaths(t, tax)
			before := make([]string, tax.Len())
			for d := range before {
				before[d] = tax.QualifiedName(taxonomy.Topic(d))
			}
			// Secondary parents: every fifth topic under some earlier one.
			edges := 0
			for d := taxonomy.Topic(5); int(d) < tax.Len(); d += 5 {
				if err := tax.AddEdge(d/3, d); err == nil {
					edges++
				} else if !errors.Is(err, taxonomy.ErrCycle) {
					t.Fatal(err)
				}
			}
			if edges == 0 {
				t.Fatal("no secondary parent was added")
			}
			for d, want := range before {
				if got := tax.QualifiedName(taxonomy.Topic(d)); got != want {
					t.Fatalf("AddEdge renamed topic %d: %q, was %q", d, got, want)
				}
			}
			tax.MustAdd(taxonomy.Topic(tax.Len()-1), "after-edges")
			namesJoinPrimaryPaths(t, tax)
		})
	}
}

// BenchmarkBuild rebuilds the paper-scale book taxonomy (21,845 topics)
// from its serialized form, as a checkpoint load does. Build allocates
// per table, not per topic: under 100 allocations per call.
//
//	go test -run '^$' -bench BenchmarkBuild -benchmem ./internal/taxonomy/
func BenchmarkBuild(b *testing.B) {
	cfg := datagen.PaperScale()
	root, names, parents := flatten(datagen.GenerateTaxonomy(cfg.Taxonomy, rand.New(rand.NewSource(cfg.Seed))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taxonomy.Build(root, names, parents); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(names)+1), "topics")
}
