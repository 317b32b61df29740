package profile

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// leaf returns the row share units at topic d propagate to under g: the
// descriptor row of a product whose one descriptor is d (s = 1), scaled
// by share.
func leaf(g *Generator, d taxonomy.Topic, share float64) profmat.Row {
	out := profmat.NewGatherer(g.Taxonomy().Len(), 0)
	g.NewStreamer().ProductDense(&model.Product{Topics: []taxonomy.Topic{d}}, out)
	r := out.Gather()
	for i := range r.Vals {
		r.Vals[i] *= share
	}
	r.Sum *= share
	return r
}

// profileOf returns agent a's profile under g.
func profileOf(t testing.TB, g *Generator, a *model.Agent, c *model.Community) profmat.Row {
	t.Helper()
	r, err := g.ProfileCtx(context.Background(), a, c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// at returns r's score at topic d, 0 when r has none.
func at(r profmat.Row, d taxonomy.Topic) float64 {
	if i, ok := slices.BinarySearch(r.Keys, int32(d)); ok {
		return r.Vals[i]
	}
	return 0
}

// cosine is the serving kernel's cosine of a and b over tax's topics.
func cosine(tax *taxonomy.Taxonomy, a, b profmat.Row) (float64, bool) {
	sc := profmat.NewScratch(tax.Len())
	sc.Load(&a)
	return sc.CosineTo(&b)
}

// TestExample1Golden reproduces Example 1 of the paper (§3.3) exactly:
// user a_i mentioned 4 books; Matrix Analysis carries 5 topic descriptors,
// one of them the leaf topic Algebra of the Fig. 1 taxonomy; s = 1000.
// The descriptor share is s/(4·5) = 50, and Eq. 3 distributes it as
// ≈29.09 to Algebra, ≈14.54 to Pure, ≈4.85 to Mathematics, ≈1.21 to
// Science and ≈0.30 to the top element Books.
func TestExample1Golden(t *testing.T) {
	tax := taxonomy.Fig1()
	alg, ok := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if !ok {
		t.Fatal("Fig1 lacks Algebra")
	}
	out := leaf(New(tax), alg, 50)

	lookup := func(q string) float64 {
		d, ok := tax.Lookup(q)
		if !ok {
			t.Fatalf("missing %s", q)
		}
		return at(out, d)
	}
	// Analytic values (sib+1 factors 2,3,4,4): leaf = 50/1.71875.
	analytic := map[string]float64{
		"Books/Science/Mathematics/Pure/Algebra": 50 / 1.71875,
		"Books/Science/Mathematics/Pure":         50 / 1.71875 / 2,
		"Books/Science/Mathematics":              50 / 1.71875 / 6,
		"Books/Science":                          50 / 1.71875 / 24,
		"Books":                                  50 / 1.71875 / 96,
	}
	for q, want := range analytic {
		if got := lookup(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("sco(%s) = %v, want %v", q, got, want)
		}
	}
	// The paper's printed values carry small rounding error; we match
	// them to within 0.005.
	published := map[string]float64{
		"Books/Science/Mathematics/Pure/Algebra": 29.087,
		"Books/Science/Mathematics/Pure":         14.543,
		"Books/Science/Mathematics":              4.848,
		"Books/Science":                          1.212,
		"Books":                                  0.303,
	}
	for q, want := range published {
		if got := lookup(q); math.Abs(got-want) > 0.005 {
			t.Errorf("sco(%s) = %v, want ≈%v (paper)", q, got, want)
		}
	}
	// The descriptor share is preserved: the path total is exactly 50.
	if got := out.Sum; math.Abs(got-50) > 1e-9 {
		t.Errorf("path total = %v, want 50", got)
	}
}

// TestGeneratorFollowsTaxonomyAdd: a generator used before its taxonomy
// grows propagates over the grown tree afterwards — the new topic has a
// path, and its siblings' shares reflect the extra sibling — exactly as a
// generator created after the growth does.
func TestGeneratorFollowsTaxonomyAdd(t *testing.T) {
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	pure, _ := tax.Lookup("Books/Science/Mathematics/Pure")
	g := New(tax)
	before := leaf(g, alg, 50)

	logic := tax.MustAdd(pure, "Logic")
	for _, d := range []taxonomy.Topic{alg, logic} {
		got, want := leaf(g, d, 50), leaf(New(tax), d, 50)
		if got.NNZ() != 5 || got.NNZ() != want.NNZ() {
			t.Fatalf("topic %d: %d path nodes, fresh generator %d, want 5", d, got.NNZ(), want.NNZ())
		}
		for i, k := range want.Keys {
			if got.Keys[i] != k || got.Vals[i] != want.Vals[i] {
				t.Fatalf("topic %d node %d: %v, fresh generator %v", d, k, got.Vals[i], want.Vals[i])
			}
		}
	}
	after := leaf(g, alg, 50)
	if at(after, alg) == at(before, alg) {
		t.Fatal("Algebra kept its share after gaining a sibling")
	}
}

// example1Community builds the 4-book community of Example 1 end to end.
func example1Community(t *testing.T) (*model.Community, *model.Agent) {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	phy, _ := tax.Lookup("Books/Science/Physics")
	ast, _ := tax.Lookup("Books/Science/Astronomy")
	nat, _ := tax.Lookup("Books/Science/Nature")
	fic, _ := tax.Lookup("Books/Fiction")
	app, _ := tax.Lookup("Books/Science/Mathematics/Applied")

	c.AddProduct(model.Product{ID: "urn:isbn:0521386322", Title: "Matrix Analysis",
		Topics: []taxonomy.Topic{alg, phy, ast, nat, fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:0802713319", Title: "Fermat's Enigma",
		Topics: []taxonomy.Topic{app}})
	c.AddProduct(model.Product{ID: "urn:isbn:0553380958", Title: "Snow Crash",
		Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:0441569560", Title: "Neuromancer",
		Topics: []taxonomy.Topic{fic}})

	for _, p := range c.Products() {
		if err := c.SetRating("ai", p, 1); err != nil {
			t.Fatal(err)
		}
	}
	return c, c.Agent("ai")
}

func TestExample1FullProfile(t *testing.T) {
	c, ai := example1Community(t)
	g := New(c.Taxonomy())
	prof := profileOf(t, g, ai, c)

	// Total profile score is normalized to s = 1000.
	if got := prof.Sum; math.Abs(got-1000) > 1e-6 {
		t.Fatalf("profile total = %v, want 1000", got)
	}
	// The Algebra descriptor contributes exactly per Example 1: only
	// Matrix Analysis's Algebra descriptor reaches Pure and Algebra.
	alg, _ := c.Taxonomy().Lookup("Books/Science/Mathematics/Pure/Algebra")
	pure, _ := c.Taxonomy().Lookup("Books/Science/Mathematics/Pure")
	if got := at(prof, alg); math.Abs(got-29.0909090909) > 1e-6 {
		t.Errorf("sco(Algebra) = %v, want 29.0909...", got)
	}
	if got := at(prof, pure); math.Abs(got-14.5454545455) > 1e-6 {
		t.Errorf("sco(Pure) = %v, want 14.5454...", got)
	}
}

func TestProfileSkipsNegativeAndUnknown(t *testing.T) {
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	c.AddProduct(model.Product{ID: "liked", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "hated", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "bare"}) // no descriptors
	must(t, c.SetRating("a", "liked", 0.8))
	must(t, c.SetRating("a", "hated", -0.8))
	must(t, c.SetRating("a", "bare", 1))

	g := New(tax)
	prof := profileOf(t, g, c.Agent("a"), c)
	// Only "liked" contributes; it gets the full s.
	if got := prof.Sum; math.Abs(got-1000) > 1e-6 {
		t.Fatalf("profile total = %v, want 1000 (one contributing product)", got)
	}
	if at(prof, fic) <= 0 {
		t.Fatal("liked product's descriptor got no score")
	}
}

func TestProfileEmptyAgent(t *testing.T) {
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	g := New(tax)
	prof := profileOf(t, g, c.AddAgent("mute"), c)
	if prof.NNZ() != 0 {
		t.Fatalf("empty history must yield empty profile, got %v", prof)
	}
}

func TestWeightByRating(t *testing.T) {
	// Algebra and Calculus are siblings: identical path divisors, so the
	// leaf scores directly expose the product-share split.
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	c := model.NewCommunity(tax)
	c.AddProduct(model.Product{ID: "math", Topics: []taxonomy.Topic{alg}})
	c.AddProduct(model.Product{ID: "other", Topics: []taxonomy.Topic{calc}})
	must(t, c.SetRating("a", "math", 1.0))
	must(t, c.SetRating("a", "other", 0.25))

	even := New(tax)
	prof := profileOf(t, even, c.Agent("a"), c)
	if math.Abs(at(prof, alg)/at(prof, calc)-1) > 1e-9 {
		t.Fatalf("even split should give equal sibling leaf scores, got %v vs %v",
			at(prof, alg), at(prof, calc))
	}

	weighted := New(tax)
	weighted.WeightByRating = true
	wprof := profileOf(t, weighted, c.Agent("a"), c)
	if ratio := at(wprof, alg) / at(wprof, calc); math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("weighted split ratio = %v, want 4", ratio)
	}
	if got := wprof.Sum; math.Abs(got-1000) > 1e-6 {
		t.Fatalf("weighted profile total = %v, want 1000", got)
	}
}

// TestBranchOverlapSimilarity verifies the §3.3 claim: "suppose a_i reads
// literature about Applied Mathematics only, and a_j about Algebra, then
// their computed similarity will be high, considering significant branch
// overlap from node Mathematics onward" — even though they share no
// product. Flat category vectors see nothing.
func TestBranchOverlapSimilarity(t *testing.T) {
	tax := taxonomy.Fig1()
	app, _ := tax.Lookup("Books/Science/Mathematics/Applied")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	c := model.NewCommunity(tax)
	c.AddProduct(model.Product{ID: "appliedBook", Topics: []taxonomy.Topic{app}})
	c.AddProduct(model.Product{ID: "algebraBook", Topics: []taxonomy.Topic{alg}})
	must(t, c.SetRating("ai", "appliedBook", 1))
	must(t, c.SetRating("aj", "algebraBook", 1))

	g := New(tax)
	pi := profileOf(t, g, c.Agent("ai"), c)
	pj := profileOf(t, g, c.Agent("aj"), c)
	// Eq. 3 concentrates most mass on the leaf, so the cross-branch cosine
	// of two single-book readers is modest — but strictly positive, which
	// is the point: plain product vectors and flat categories both see
	// exactly zero here.
	sim, ok := cosine(tax, pi, pj)
	if !ok || sim <= 0.01 {
		t.Fatalf("taxonomy similarity = %v,%v, want positive", sim, ok)
	}

	flat := New(tax)
	flat.Mode = Flat
	fi := profileOf(t, flat, c.Agent("ai"), c)
	fj := profileOf(t, flat, c.Agent("aj"), c)
	fsim, fok := cosine(tax, fi, fj)
	if fok && fsim != 0 {
		t.Fatalf("flat category similarity = %v, want 0 (disjoint leaves)", fsim)
	}
	if sim <= fsim {
		t.Fatal("Eq3 propagation must beat flat categories on branch overlap")
	}
}

func TestUniformModeStillOverlapsButDifferently(t *testing.T) {
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	g := New(tax)
	g.Mode = Uniform
	out := leaf(g, alg, 50)
	// 5 path nodes, 10 each.
	if got := at(out, alg); math.Abs(got-10) > 1e-9 {
		t.Fatalf("uniform leaf share = %v, want 10", got)
	}
	if got := out.Sum; math.Abs(got-50) > 1e-9 {
		t.Fatalf("uniform total = %v, want 50", got)
	}
	if got := g.Mode.String(); got != "uniform" {
		t.Fatalf("Mode.String = %q", got)
	}
}

// randomSetup builds a random taxonomy, catalog, and rating history.
func randomSetup(seed int64) (*model.Community, *model.Agent) {
	rng := rand.New(rand.NewSource(seed))
	tax := taxonomy.New("Root")
	for i := 0; i < 40; i++ {
		parent := taxonomy.Topic(rng.Intn(tax.Len()))
		tax.MustAdd(parent, "t"+itoa(i))
	}
	c := model.NewCommunity(tax)
	leaves := tax.Leaves()
	for i := 0; i < 25; i++ {
		nd := 1 + rng.Intn(3)
		topics := make([]taxonomy.Topic, 0, nd)
		for j := 0; j < nd; j++ {
			topics = append(topics, leaves[rng.Intn(len(leaves))])
		}
		c.AddProduct(model.Product{ID: model.ProductID("p" + itoa(i)), Topics: topics})
	}
	prods := c.Products()
	for i := 0; i < 10; i++ {
		_ = c.SetRating("a", prods[rng.Intn(len(prods))], rng.Float64())
	}
	return c, c.Agent("a")
}

// Property: for every mode, the profile total equals s whenever at least
// one product contributes, and every entry is non-negative.
func TestProfileNormalizationProperty(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		c, a := randomSetup(seed)
		g := New(c.Taxonomy())
		g.Mode = Mode(mode % 3)
		prof, err := g.ProfileCtx(context.Background(), a, c)
		if err != nil {
			return false
		}
		if len(a.Ratings) == 0 {
			return prof.NNZ() == 0
		}
		for _, v := range prof.Vals {
			if v < 0 {
				return false
			}
		}
		return math.Abs(prof.Sum-1000) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: similarity is invariant under the normalization constant s —
// the paper's profiles are comparable across agents regardless of s.
func TestScoreScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		c, a := randomSetup(seed)
		_, b := randomSetup(seed ^ 0x9e3779b9)
		// Rebuild b's ratings against c's catalog so both share it.
		rng := rand.New(rand.NewSource(seed ^ 1))
		bAgent := c.AddAgent("b")
		prods := c.Products()
		for i := 0; i < 10; i++ {
			_ = c.SetRating("b", prods[rng.Intn(len(prods))], rng.Float64())
		}
		_ = b

		g1 := New(c.Taxonomy())
		g2 := New(c.Taxonomy())
		g2.Score = 42
		p1a, p1b := profileOf(t, g1, a, c), profileOf(t, g1, bAgent, c)
		p2a, p2b := profileOf(t, g2, a, c), profileOf(t, g2, bAgent, c)
		s1, ok1 := cosine(c.Taxonomy(), p1a, p1b)
		s2, ok2 := cosine(c.Taxonomy(), p2a, p2b)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: propagation always conserves a descriptor's share (Eq3 and
// Uniform) or assigns it fully to the descriptor (Flat).
func TestPropagationConservationProperty(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tax := taxonomy.New("Root")
		for i := 0; i < 30; i++ {
			tax.MustAdd(taxonomy.Topic(rng.Intn(tax.Len())), "t"+itoa(i))
		}
		g := New(tax)
		g.Mode = Mode(mode % 3)
		d := taxonomy.Topic(rng.Intn(tax.Len()))
		share := rng.Float64()*100 + 1
		return math.Abs(leaf(g, d, share).Sum-share) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
