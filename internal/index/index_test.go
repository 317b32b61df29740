package index

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

func fig1Community(t *testing.T) (*model.Community, map[string]taxonomy.Topic) {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	topics := map[string]taxonomy.Topic{}
	for _, q := range []string{
		"Books/Science/Mathematics/Pure/Algebra",
		"Books/Science/Mathematics/Pure/Calculus",
		"Books/Science/Mathematics/Applied",
		"Books/Science/Physics",
		"Books/Fiction",
	} {
		d, ok := tax.Lookup(q)
		if !ok {
			t.Fatalf("missing %s", q)
		}
		topics[q[len("Books/"):]] = d
	}
	c.AddProduct(model.Product{ID: "alg1", Topics: []taxonomy.Topic{topics["Science/Mathematics/Pure/Algebra"]}})
	c.AddProduct(model.Product{ID: "alg2", Topics: []taxonomy.Topic{topics["Science/Mathematics/Pure/Algebra"], topics["Fiction"]}})
	c.AddProduct(model.Product{ID: "calc", Topics: []taxonomy.Topic{topics["Science/Mathematics/Pure/Calculus"]}})
	c.AddProduct(model.Product{ID: "app", Topics: []taxonomy.Topic{topics["Science/Mathematics/Applied"]}})
	c.AddProduct(model.Product{ID: "phy", Topics: []taxonomy.Topic{topics["Science/Physics"]}})
	return c, topics
}

// naive is the index as a map of postings and a recursive walk of the
// primary children: the oracle the arena is held to.
type naive struct {
	tax      *taxonomy.Taxonomy
	postings map[taxonomy.Topic][]model.ProductID
}

func buildNaive(comm *model.Community) *naive {
	ix := &naive{tax: comm.Taxonomy(), postings: map[taxonomy.Topic][]model.ProductID{}}
	for _, pid := range comm.Products() {
		for _, d := range comm.Product(pid).Topics {
			ix.postings[d] = append(ix.postings[d], pid)
		}
	}
	return ix
}

func (ix *naive) direct(d taxonomy.Topic) []model.ProductID { return ix.postings[d] }

func (ix *naive) subtree(d taxonomy.Topic) []model.ProductID {
	if ix.tax == nil {
		return ix.direct(d)
	}
	seen := map[model.ProductID]bool{}
	var out []model.ProductID
	var walk func(t taxonomy.Topic)
	walk = func(t taxonomy.Topic) {
		for _, pid := range ix.postings[t] {
			if !seen[pid] {
				seen[pid] = true
				out = append(out, pid)
			}
		}
		for _, c := range ix.tax.Children(t) {
			if ix.tax.Parent(c) == t { // primary edges only, no revisits
				walk(c)
			}
		}
	}
	walk(d)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// requireOracle holds Direct, Subtree and Count to the naive index on
// every given topic.
func requireOracle(t *testing.T, comm *model.Community, topics []taxonomy.Topic) {
	t.Helper()
	ix, want := Build(comm), buildNaive(comm)
	for _, d := range topics {
		if got, w := ix.Direct(d), want.direct(d); !slices.Equal(got, w) {
			t.Fatalf("Direct(%d) = %v, oracle %v", d, got, w)
		}
		sub := want.subtree(d)
		if got := ix.Subtree(d); !slices.Equal(got, sub) {
			t.Fatalf("Subtree(%d) = %d products, oracle %d: %v vs %v", d, len(got), len(sub), got, sub)
		}
		if got := ix.Count(d); got != len(sub) {
			t.Fatalf("Count(%d) = %d, oracle %d", d, got, len(sub))
		}
	}
}

// TestMatchesNaiveOracleOnEveryTopic: at the paper's catalog (9,953
// books over a 21,845-topic tree numbered breadth first, so preorder
// and topic order differ) and on Fig. 1 with a secondary parent, every
// topic answers what the map walk answers.
func TestMatchesNaiveOracleOnEveryTopic(t *testing.T) {
	cfg := datagen.PaperScale()
	cfg.Agents = 50
	comm, _ := datagen.Generate(cfg)
	if comm.NumProducts() != 9953 || comm.Taxonomy().Len() < 20000 {
		t.Fatalf("fixture: %d products, %d topics", comm.NumProducts(), comm.Taxonomy().Len())
	}
	requireOracle(t, comm, comm.Taxonomy().Topics())

	c, topics := fig1Community(t)
	// A secondary edge is not a primary child: Fiction's branch must not
	// take in Algebra's books through it.
	if err := c.Taxonomy().AddEdge(topics["Fiction"], topics["Science/Mathematics/Pure/Algebra"]); err != nil {
		t.Fatal(err)
	}
	requireOracle(t, c, c.Taxonomy().Topics())
}

// TestWithoutTaxonomySubtreeIsDirect: with no taxonomy a descriptor is
// an opaque label and its branch is itself — catalog order, a product
// twice if it carries the label twice, as the map answered.
func TestWithoutTaxonomySubtreeIsDirect(t *testing.T) {
	c := model.NewCommunity(nil)
	for i, ds := range [][]taxonomy.Topic{{7}, {-3, 7}, {1 << 30}, {7, 7}, nil, {-3}} {
		c.AddProduct(model.Product{ID: model.ProductID(fmt.Sprintf("p%d", 9-i)), Topics: ds})
	}
	requireOracle(t, c, []taxonomy.Topic{7, -3, 1 << 30, 0, 8, -1})
	ix := Build(c)
	if got := ix.Subtree(7); !slices.Equal(got, []model.ProductID{"p9", "p8", "p6", "p6"}) {
		t.Fatalf("Subtree(7) = %v, want catalog order with the repeat", got)
	}
}

// TestDescriptorOutsideTaxonomyIsNotPosted: a product naming a topic its
// taxonomy does not hold is in no branch, and asking for that topic
// finds nothing — without indexing out of range.
func TestDescriptorOutsideTaxonomyIsNotPosted(t *testing.T) {
	c, topics := fig1Community(t)
	tax := c.Taxonomy()
	stray := taxonomy.Topic(tax.Len() + 5)
	c.AddProduct(model.Product{ID: "stray", Topics: []taxonomy.Topic{stray, -1}})
	c.AddProduct(model.Product{ID: "half", Topics: []taxonomy.Topic{stray, topics["Fiction"]}})
	ix := Build(c)
	for _, d := range []taxonomy.Topic{stray, -1, taxonomy.Topic(tax.Len())} {
		if got := ix.Direct(d); got != nil {
			t.Fatalf("Direct(%d) = %v, want none", d, got)
		}
		if got := ix.Subtree(d); got != nil {
			t.Fatalf("Subtree(%d) = %v, want none", d, got)
		}
		if got := ix.Count(d); got != 0 {
			t.Fatalf("Count(%d) = %d, want 0", d, got)
		}
	}
	want := []model.ProductID{"alg1", "alg2", "app", "calc", "half", "phy"}
	if got := ix.Subtree(taxonomy.Root); !slices.Equal(got, want) {
		t.Fatalf("Subtree(root) = %v, want %v", got, want)
	}
	requireOracle(t, c, tax.Topics())
}

func TestDirectPostings(t *testing.T) {
	c, topics := fig1Community(t)
	ix := Build(c)
	alg := ix.Direct(topics["Science/Mathematics/Pure/Algebra"])
	if len(alg) != 2 || alg[0] != "alg1" || alg[1] != "alg2" {
		t.Fatalf("Direct(Algebra) = %v", alg)
	}
	if got := ix.Direct(topics["Science/Physics"]); len(got) != 1 || got[0] != "phy" {
		t.Fatalf("Direct(Physics) = %v", got)
	}
	// Inner topic with no direct postings.
	math, _ := c.Taxonomy().Lookup("Books/Science/Mathematics")
	if got := ix.Direct(math); got != nil {
		t.Fatalf("Direct(Mathematics) = %v, want none", got)
	}
}

func TestSubtreeMergesAndDedupes(t *testing.T) {
	c, _ := fig1Community(t)
	ix := Build(c)
	math, _ := c.Taxonomy().Lookup("Books/Science/Mathematics")
	got := ix.Subtree(math)
	want := []model.ProductID{"alg1", "alg2", "app", "calc"}
	if len(got) != len(want) {
		t.Fatalf("Subtree(Mathematics) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subtree order: %v, want %v", got, want)
		}
	}
	// Root subtree covers the whole posted catalog exactly once (alg2 has
	// two descriptors but appears once).
	if got := ix.Subtree(taxonomy.Root); len(got) != 5 {
		t.Fatalf("Subtree(root) = %v", got)
	}
	if ix.Count(math) != 4 {
		t.Fatalf("Count = %d", ix.Count(math))
	}
}

func TestSubtreeConsistentWithGeneratedCatalog(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Products = 150
	comm, _ := datagen.Generate(cfg)
	ix := Build(comm)
	// Every product must be reachable from the root subtree.
	all := ix.Subtree(taxonomy.Root)
	if len(all) != comm.NumProducts() {
		t.Fatalf("root subtree = %d products, want %d", len(all), comm.NumProducts())
	}
	// Per-topic counts sum over direct postings equals Σ|f(b)|.
	direct := 0
	for _, d := range comm.Taxonomy().Topics() {
		direct += len(ix.Direct(d))
	}
	wantPostings := 0
	for _, pid := range comm.Products() {
		wantPostings += len(comm.Product(pid).Topics)
	}
	if direct != wantPostings {
		t.Fatalf("posting count %d, want %d", direct, wantPostings)
	}
}
