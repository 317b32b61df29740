package cf

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/sparse"
	"swrec/internal/taxonomy"
)

// twinCommunity builds a community where alice and bob share taste
// (identical rating histories), carol diverges, and dave rates nothing in
// common with anyone but reads a sibling category of alice's.
func twinCommunity(t *testing.T) *model.Community {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	fic, _ := tax.Lookup("Books/Fiction")
	phy, _ := tax.Lookup("Books/Science/Physics")

	c.AddProduct(model.Product{ID: "b-alg1", Topics: []taxonomy.Topic{alg}})
	c.AddProduct(model.Product{ID: "b-alg2", Topics: []taxonomy.Topic{alg}})
	c.AddProduct(model.Product{ID: "b-calc", Topics: []taxonomy.Topic{calc}})
	c.AddProduct(model.Product{ID: "b-fic1", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "b-fic2", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "b-phy", Topics: []taxonomy.Topic{phy}})

	set := func(a model.AgentID, ratings map[model.ProductID]float64) {
		for p, v := range ratings {
			if err := c.SetRating(a, p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	set("alice", map[model.ProductID]float64{"b-alg1": 1, "b-alg2": 0.8, "b-fic1": 0.2})
	set("bob", map[model.ProductID]float64{"b-alg1": 0.9, "b-alg2": 0.9, "b-fic1": 0.1})
	set("carol", map[model.ProductID]float64{"b-fic1": 1, "b-fic2": 1, "b-alg1": -0.8})
	set("dave", map[model.ProductID]float64{"b-calc": 1})
	return c
}

func TestTaxonomyRequiredForNonProductRepr(t *testing.T) {
	c := model.NewCommunity(nil)
	if _, err := New(c, Options{Representation: Taxonomy}); err == nil {
		t.Fatal("taxonomy representation without taxonomy accepted")
	}
	if _, err := New(c, Options{Representation: FlatCategory}); err == nil {
		t.Fatal("flat representation without taxonomy accepted")
	}
	if _, err := New(c, Options{Representation: Product}); err != nil {
		t.Fatalf("product representation must not need a taxonomy: %v", err)
	}
}

func TestSimilarTasteRanksFirst(t *testing.T) {
	c := twinCommunity(t)
	for _, m := range []Measure{Pearson, Cosine} {
		f, err := New(c, Options{Measure: m, Representation: Taxonomy})
		if err != nil {
			t.Fatal(err)
		}
		nn := f.NearestNeighbors("alice", c.Agents(), 0)
		if len(nn) == 0 {
			t.Fatalf("[%v] no neighbors", m)
		}
		if nn[0].Agent != "bob" {
			t.Fatalf("[%v] nearest neighbor = %s (%v), want bob", m, nn[0].Agent, nn[0].Sim)
		}
		for _, n := range nn {
			if n.Agent == "alice" {
				t.Fatalf("[%v] active agent ranked as own neighbor", m)
			}
		}
	}
}

func TestProductVsTaxonomyOverlap(t *testing.T) {
	c := twinCommunity(t)
	// dave shares no product with alice: product-representation Pearson is
	// undefined, taxonomy cosine is defined and positive (sibling leaves
	// share Pure/Mathematics/... mass).
	prod, err := New(c, Options{Measure: Pearson, Representation: Product})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prod.Similarity("alice", "dave"); ok {
		t.Fatal("product Pearson must be undefined with zero co-rated products")
	}
	taxf, err := New(c, Options{Measure: Cosine, Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := taxf.Similarity("alice", "dave"); !ok || s <= 0 {
		t.Fatalf("taxonomy similarity alice/dave = %v,%v, want positive", s, ok)
	}
}

func TestDefinedPairFraction(t *testing.T) {
	c := twinCommunity(t)
	ids := c.Agents()
	prod, err := New(c, Options{Measure: Pearson, Representation: Product})
	if err != nil {
		t.Fatal(err)
	}
	taxf, err := New(c, Options{Measure: Cosine, Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	fp := prod.DefinedPairFraction(ids)
	ft := taxf.DefinedPairFraction(ids)
	if ft <= fp {
		t.Fatalf("taxonomy overlap %v must beat product overlap %v", ft, fp)
	}
	if ft != 1 {
		t.Fatalf("taxonomy cosine should be defined for all pairs here, got %v", ft)
	}
	if got := prod.DefinedPairFraction(nil); got != 0 {
		t.Fatalf("degenerate input fraction = %v, want 0", got)
	}
}

func TestFlatCategoryLosesCrossTopicSignal(t *testing.T) {
	c := twinCommunity(t)
	flat, err := New(c, Options{Measure: Cosine, Representation: FlatCategory})
	if err != nil {
		t.Fatal(err)
	}
	// alice rates Algebra+Fiction leaves, dave rates only Calculus: flat
	// vectors are orthogonal.
	if s, ok := flat.Similarity("alice", "dave"); ok && s != 0 {
		t.Fatalf("flat similarity = %v, want 0", s)
	}
}

func TestUnknownAgentEmptyProfile(t *testing.T) {
	c := twinCommunity(t)
	f, err := New(c, Options{Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Similarity("ghost", "alice"); ok {
		t.Fatal("similarity with ghost must be undefined")
	}
	if got := f.Matrix().Len(); got != c.NumAgents() {
		t.Fatalf("matrix has %d rows for %d agents", got, c.NumAgents())
	}
}

// TestWithMeasureSharesCompiledState: a measure view computes the other
// coefficient over the very same matrix, whichever of the two compiled it.
func TestWithMeasureSharesCompiledState(t *testing.T) {
	c := twinCommunity(t)
	f, err := New(c, Options{Measure: Cosine, Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	if f.WithMeasure(Cosine) != f {
		t.Fatal("the filter's own measure must not make a new view")
	}
	v := f.WithMeasure(Pearson)
	if got := v.Options(); got.Measure != Pearson || got.Representation != Taxonomy {
		t.Fatalf("view options = %+v", got)
	}
	pearson, ok := v.Similarity("alice", "carol") // compiles through the view
	if !ok {
		t.Fatal("alice/carol Pearson undefined")
	}
	if f.Matrix() == nil || f.Matrix() != v.Matrix() {
		t.Fatal("the view compiled a matrix of its own")
	}
	own, err := New(c, Options{Measure: Pearson, Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := own.Similarity("alice", "carol"); pearson != want {
		t.Fatalf("view Pearson %v, a Pearson filter says %v", pearson, want)
	}
	if cosine, _ := f.Similarity("alice", "carol"); cosine == pearson {
		t.Fatalf("the view changed the original's measure: both say %v", cosine)
	}
}

func TestNearestNeighborsK(t *testing.T) {
	c := twinCommunity(t)
	f, err := New(c, Options{Measure: Cosine, Representation: Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	nn := f.NearestNeighbors("alice", c.Agents(), 2)
	if len(nn) != 2 {
		t.Fatalf("k=2 returned %d", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i-1].Sim < nn[i].Sim {
			t.Fatal("neighbors not sorted descending")
		}
	}
}

func TestMeasureAndReprStrings(t *testing.T) {
	if Pearson.String() != "pearson" || Cosine.String() != "cosine" {
		t.Fatal("Measure.String broken")
	}
	if Taxonomy.String() != "taxonomy" || FlatCategory.String() != "flat-category" || Product.String() != "product" {
		t.Fatal("Representation.String broken")
	}
	if Measure(9).String() == "" || Representation(9).String() == "" {
		t.Fatal("unknown enum must still stringify")
	}
}

func TestOptionPassThrough(t *testing.T) {
	c := twinCommunity(t)
	f, err := New(c, Options{ProfileScore: 42, WeightByRating: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Options(); got.ProfileScore != 42 || !got.WeightByRating {
		t.Fatalf("Options = %+v", got)
	}
	// The compiled profile honors the custom score constant.
	if err := f.Compile(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum := f.Matrix().Row(c.Agent("alice").Ord()).Sum
	if sum < 41.99 || sum > 42.01 {
		t.Fatalf("profile total = %v, want 42", sum)
	}
}

func TestProductRepresentationSimilarity(t *testing.T) {
	c := twinCommunity(t)
	f, err := New(c, Options{Measure: Pearson, Representation: Product})
	if err != nil {
		t.Fatal(err)
	}
	// alice and bob co-rated 3 products with aligned preferences.
	s, ok := f.Similarity("alice", "bob")
	if !ok || s <= 0.5 {
		t.Fatalf("alice/bob product Pearson = %v,%v, want strongly positive", s, ok)
	}
	// carol's co-rated pattern anti-correlates with alice's.
	s2, ok2 := f.Similarity("alice", "carol")
	if !ok2 || s2 >= 0 {
		t.Fatalf("alice/carol product Pearson = %v,%v, want negative", s2, ok2)
	}
	if math.Abs(s) > 1 || math.Abs(s2) > 1 {
		t.Fatal("similarity out of bounds")
	}
}

// TestProductRowsMatchSparseOracle: over a generated community the
// compiled product-rating rows give the similarities the map-backed
// vectors over Agent.Ratings give (test-local oracle: sparse.Pearson /
// sparse.Cosine, which sum in map order — hence the 1e-12), for every
// pair, with the same defined/undefined verdicts, negative ratings
// included.
func TestProductRowsMatchSparseOracle(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 60
	cfg.Products = 40
	comm, _ := datagen.Generate(cfg)
	ids := comm.Agents()
	negatives := 0
	// The generator rates on a positive scale; dislike every third of the
	// first agents' products so negative values are compared too.
	for _, id := range ids[:20] {
		for i, rs := range comm.RatingStatements(comm.Agent(id)) {
			if i%3 == 0 {
				if err := comm.SetRating(id, rs.Product, -rs.Value); err != nil {
					t.Fatal(err)
				}
				negatives++
			}
		}
	}
	if negatives == 0 {
		t.Fatal("no negative rating in the sample")
	}
	oracle := func(id model.AgentID) sparse.Vector {
		v := sparse.New(0)
		for _, e := range comm.Agent(id).RatedProducts() {
			v[e.Ord] = e.Val
		}
		return v
	}
	for _, m := range []Measure{Pearson, Cosine} {
		f, err := New(comm, Options{Measure: m, Representation: Product})
		if err != nil {
			t.Fatal(err)
		}
		defined := 0
		for i, a := range ids {
			va := oracle(a)
			for _, b := range ids[i+1:] {
				var want float64
				var wantOK bool
				if m == Cosine {
					want, wantOK = sparse.Cosine(va, oracle(b))
				} else {
					want, wantOK = sparse.Pearson(va, oracle(b))
				}
				got, ok := f.Similarity(a, b)
				if ok != wantOK || math.Abs(got-want) > 1e-12 {
					t.Fatalf("[%v] %s/%s = %v,%v, oracle %v,%v", m, a, b, got, ok, want, wantOK)
				}
				if ok {
					defined++
				}
			}
		}
		if defined == 0 {
			t.Fatalf("[%v] no pair with a defined similarity", m)
		}
		if mat := f.Matrix(); mat == nil || mat.Len() != len(ids) {
			t.Fatalf("[%v] product representation did not compile", m)
		}
	}
}

// TestDroppedFilterFreesItsMatrix: once a filter that has scanned is
// dropped, one GC cycle collects its compiled matrix and the matrix's row
// array. Neither the runtime's registry of used pools nor a pooled
// scratch may keep them: a recovering process throws away a matrix per
// restart, and one still pinned at the next GC is heap the live-heap
// reading counts. Each object is watched on its own filter: a finalizer
// on the matrix would itself keep the row array for one more cycle.
func TestDroppedFilterFreesItsMatrix(t *testing.T) {
	comm := twinCommunity(t)
	for what, watch := range map[string]func(*profmat.Matrix, chan<- struct{}){
		"matrix": func(m *profmat.Matrix, done chan<- struct{}) {
			runtime.SetFinalizer(m, func(*profmat.Matrix) { close(done) })
		},
		"row array": func(m *profmat.Matrix, done chan<- struct{}) {
			runtime.SetFinalizer(m.Row(0), func(*profmat.Row) { close(done) })
		},
	} {
		collected := make(chan struct{})
		func() {
			f, err := New(comm, Options{Measure: Cosine})
			if err != nil {
				t.Fatal(err)
			}
			peers := []int32{0, 1, 2, 3}
			out := make([]SimResult, len(peers))
			// Active ordinal 1, so a scratch that kept its row would point
			// into the middle of the row array.
			if err := f.Similarities(context.Background(), 1, peers, out); err != nil {
				t.Fatal(err)
			}
			watch(f.Matrix(), collected)
		}()
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatalf("one GC after the filter was dropped, its %s is still live", what)
		}
	}
}

// TestScanMatchesOneRowKernel pins the batch scan to the one-row cosine
// kernel bit for bit: peer lists of every length 0–9 (so every len % 4
// tail, before and after a four-row group), one of R + 1 = 401 rows, with
// repeats, unknown ordinals and empty profiles among the peers, over the
// full-resolution matrix and the folded one AncestorSimilarities scans.
func TestScanMatchesOneRowKernel(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 500
	comm, _ := datagen.Generate(cfg)
	f, err := New(comm, Options{Measure: Cosine})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(401))
	n := int32(comm.NumAgents())
	for _, depth := range []int{0, 2} {
		scan := f.Similarities
		if depth > 0 {
			scan = func(ctx context.Context, active int32, peers []int32, out []SimResult) error {
				return f.AncestorSimilarities(ctx, depth, active, peers, out)
			}
		}
		for _, size := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 401} {
			active := rng.Int31n(n)
			peers := make([]int32, size)
			for i := range peers {
				peers[i] = rng.Int31n(n + 2) // n and n+1 are unknown ordinals
			}
			out := make([]SimResult, size)
			if err := scan(ctx, active, peers, out); err != nil {
				t.Fatal(err)
			}
			mat := f.Matrix()
			if depth > 0 {
				if mat, err = f.coarseMatrix(ctx, depth); err != nil {
					t.Fatal(err)
				}
			}
			sc := profmat.NewScratch(f.dims())
			sc.Load(rowAt(mat, active))
			defined := 0
			for i, p := range peers {
				want, ok := sc.CosineTo(rowAt(mat, p))
				if out[i].Sim != want || out[i].OK != ok {
					t.Fatalf("depth %d, %d peers, peer %d (ordinal %d): scan (%v,%v), CosineTo (%v,%v)",
						depth, size, i, p, out[i].Sim, out[i].OK, want, ok)
				}
				if ok && want != 0 {
					defined++
				}
			}
			if size == 401 && defined < size/2 {
				t.Fatalf("depth %d: only %d of %d similarities defined and non-zero: the fixture tests little", depth, defined, size)
			}
		}
	}
}

// TestSimilaritiesAllocateNothing holds a serving-sized scan — R + 1 =
// 401 rows, both measures — to zero allocations once the scratch pool is
// warm.
func TestSimilaritiesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := datagen.SmallScale()
	cfg.Agents = 500
	comm, _ := datagen.Generate(cfg)
	peers := make([]int32, 401)
	for i := range peers {
		peers[i] = int32(i)
	}
	out := make([]SimResult, len(peers))
	for _, m := range []Measure{Cosine, Pearson} {
		f, err := New(comm, Options{Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := f.Similarities(context.Background(), 7, peers, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run); got != 0 {
			t.Errorf("%v: %v allocations per 401-row scan, want 0", m, got)
		}
	}
}

// TestParseMeasureInvertsString: every measure survives String then
// ParseMeasure, and a name no measure has is an error.
func TestParseMeasureInvertsString(t *testing.T) {
	for _, m := range []Measure{Pearson, Cosine} {
		if got, err := ParseMeasure(m.String()); err != nil || got != m {
			t.Errorf("ParseMeasure(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, s := range []string{"", "Cosine", Measure(99).String()} {
		if m, err := ParseMeasure(s); err == nil {
			t.Errorf("ParseMeasure(%q) = %v, want an error", s, m)
		}
	}
}
