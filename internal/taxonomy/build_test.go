package taxonomy_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
