package profile_test

import (
	"context"
	"math"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/sparse"
	"swrec/internal/taxonomy"
)

// rowOf gathers a map-built profile into a row over g's topics, plus
// room for the foreign dimensions TestGeneralizeDeterministic adds.
func rowOf(g *profile.Generator, v sparse.Vector) profmat.Row {
	out := profmat.NewGatherer(g.Taxonomy().Len()+64, 0)
	for k, x := range v {
		out.Add(k, x)
	}
	return out.Gather()
}

// fold generalizes one map-built profile the way the serving path does:
// gathered into a row, folded through the generator's ancestor-at-depth
// array (profmat.Fold). It returns the folded row.
func fold(g *profile.Generator, v sparse.Vector, depth int) *profmat.Row {
	return profmat.Fold(profmat.Restore([]profmat.Row{rowOf(g, v)}), g.AncestorsAt(depth)).Row(0)
}

// cosine is the serving kernel's cosine of two rows over g's topics.
func cosine(g *profile.Generator, a, b *profmat.Row) (float64, bool) {
	sc := profmat.NewScratch(g.Taxonomy().Len())
	sc.Load(a)
	return sc.CosineTo(b)
}

// at returns the row's value at dimension d, and whether it holds one.
func at(r *profmat.Row, d taxonomy.Topic) (float64, bool) {
	for i, k := range r.Keys {
		if k == int32(d) {
			return r.Vals[i], true
		}
	}
	return 0, false
}

// TestGeneralizeFoldsDeepTopics checks the upward fold against the Fig. 1
// taxonomy: topics deeper than maxDepth move their whole score onto the
// maxDepth ancestor of their primary path, shallower entries pass through.
func TestGeneralizeFoldsDeepTopics(t *testing.T) {
	tax := taxonomy.Fig1()
	lookup := func(q string) taxonomy.Topic {
		d, ok := tax.Lookup(q)
		if !ok {
			t.Fatalf("missing %s", q)
		}
		return d
	}
	alg := lookup("Books/Science/Mathematics/Pure/Algebra") // depth 4
	math2 := lookup("Books/Science/Mathematics")            // depth 2
	sci := lookup("Books/Science")                          // depth 1

	g := profile.New(tax)
	v := sparse.New(4)
	v.Add(int32(alg), 30)
	v.Add(int32(math2), 5)
	v.Add(int32(sci), 2)

	out := fold(g, v, 2)
	// Algebra (depth 4) folds onto Mathematics (depth 2), joining the
	// score already sitting there; Science stays put.
	if got, _ := at(out, math2); math.Abs(got-35) > 1e-12 {
		t.Fatalf("Mathematics = %v, want 35", got)
	}
	if got, _ := at(out, sci); got != 2 {
		t.Fatalf("Science = %v, want 2", got)
	}
	if _, ok := at(out, alg); ok {
		t.Fatal("deep topic survived the fold")
	}
	// Total score mass is preserved by the fold, and the row aggregates
	// describe the folded entries.
	if math.Abs(out.Sum-v.Sum()) > 1e-12 {
		t.Fatalf("mass changed: %v -> %v", v.Sum(), out.Sum)
	}
	if want := math.Sqrt(35*35 + 2*2); math.Abs(out.Norm-want) > 1e-12 {
		t.Fatalf("norm = %v, want %v", out.Norm, want)
	}
}

func TestGeneralizeClampsDepth(t *testing.T) {
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	sci, _ := tax.Lookup("Books/Science")
	g := profile.New(tax)
	v := sparse.New(1)
	v.Add(int32(alg), 10)
	// maxDepth 0 is treated as 1: everything lands on depth-1 ancestors,
	// never on the root (which would erase all distinction).
	out := fold(g, v, 0)
	if got, _ := at(out, sci); got != 10 {
		t.Fatalf("fold-to-depth-1 = %v, row %+v", got, out)
	}
	if _, ok := at(out, taxonomy.Root); ok {
		t.Fatal("score folded onto the root")
	}
}

// TestGeneralizeDeterministic: a dimension outside the taxonomy is
// skipped, keys come out ascending, and values that meet on one ancestor
// are summed in ascending source-key order — so the folded row is
// bit-identical however the input map happened to iterate.
func TestGeneralizeDeterministic(t *testing.T) {
	tax := taxonomy.Fig1()
	g := profile.New(tax)
	v := sparse.New(8)
	for _, l := range tax.Leaves() {
		v.Add(int32(l), 1.0/3.0)
	}
	v.Add(int32(tax.Len())+7, 99) // no such topic
	first := fold(g, v, 1)
	if math.Abs(first.Sum-float64(len(tax.Leaves()))/3) > 1e-12 {
		t.Fatalf("folded mass %v: the foreign dimension was not skipped", first.Sum)
	}
	remap := g.AncestorsAt(1)
	want := map[int32]float64{}
	for _, e := range v.Entries() { // ascending key order
		if int(e.Key) < len(remap) {
			want[remap[e.Key]] += e.Value
		}
	}
	for i, k := range first.Keys {
		if i > 0 && first.Keys[i-1] >= k {
			t.Fatalf("keys not ascending: %v", first.Keys)
		}
		if first.Vals[i] != want[k] {
			t.Fatalf("dim %d = %v, ascending-order sum is %v", k, first.Vals[i], want[k])
		}
	}
	for i := 0; i < 20; i++ {
		again := fold(g, v, 1)
		if len(again.Keys) != len(first.Keys) {
			t.Fatalf("run %d: %d entries vs %d", i, len(again.Keys), len(first.Keys))
		}
		for j := range first.Keys {
			if again.Keys[j] != first.Keys[j] || again.Vals[j] != first.Vals[j] {
				t.Fatalf("run %d: entry %d differs (accumulation order leaked)", i, j)
			}
		}
	}
}

func TestGeneralizeRecoversOverlap(t *testing.T) {
	// Two profiles over sibling leaves of the same super-topic: nearly
	// disjoint at fine grain, identical after generalizing to the shared
	// ancestor's depth — the §2 low-overlap pathology and its cure.
	tax := taxonomy.New("Top")
	branch := tax.MustAdd(taxonomy.Root, "Branch")
	l1 := tax.MustAdd(branch, "leaf-1")
	l2 := tax.MustAdd(branch, "leaf-2")
	g := profile.New(tax)
	a := sparse.New(1)
	a.Add(int32(l1), 10)
	b := sparse.New(1)
	b.Add(int32(l2), 10)
	ra, rb := rowOf(g, a), rowOf(g, b)
	if sim, ok := cosine(g, &ra, &rb); ok && sim > 0 {
		t.Fatalf("fine-grained profiles overlap: %v", sim)
	}
	sim, ok := cosine(g, fold(g, a, 1), fold(g, b, 1))
	if !ok || math.Abs(sim-1) > 1e-12 {
		t.Fatalf("generalized similarity = %v (%v), want 1", sim, ok)
	}
}

// TestProductVector: the plain product-rating representation (cf's
// Product) — the one whose "low profile overlap" (§2) taxonomy profiles
// fix — compiles to a row over product ordinals that holds every rating,
// negative ones included, as common collaborative filtering uses the full
// history.
func TestProductVector(t *testing.T) {
	c := model.NewCommunity(nil)
	c.AddProduct(model.Product{ID: "p0"})
	c.AddProduct(model.Product{ID: "p1"})
	c.AddProduct(model.Product{ID: "p2"})
	for p, v := range map[model.ProductID]float64{"p1": 0.5, "p2": -0.5} {
		if err := c.SetRating("a", p, v); err != nil {
			t.Fatal(err)
		}
	}
	f, err := cf.New(c, cf.Options{Representation: cf.Product})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Compile(context.Background()); err != nil {
		t.Fatal(err)
	}
	row := f.Matrix().Row(c.Agent("a").Ord())
	if row.NNZ() != 2 {
		t.Fatalf("product row = %+v, want 2 entries (negatives included)", row)
	}
	p1, p2 := c.Product("p1").Ord(), c.Product("p2").Ord()
	if row.Keys[0] != p1 || row.Vals[0] != 0.5 || row.Keys[1] != p2 || row.Vals[1] != -0.5 {
		t.Fatalf("product row = %+v, want {%d: 0.5, %d: -0.5}", row, p1, p2)
	}
	if row.Sum != 0 || math.Abs(row.Norm-math.Sqrt(0.5)) > 1e-15 {
		t.Fatalf("aggregates = (sum %v, norm %v)", row.Sum, row.Norm)
	}
}
