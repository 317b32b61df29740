package core

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/datagen"
)

func TestProductSimilarity(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Same product → 1.
	if s, ok := r.ProductSimilarity("alg1", "alg1"); !ok || s < 0.999999 {
		t.Fatalf("self similarity = %v,%v", s, ok)
	}
	// Same leaf descriptor → 1; sibling leaves high; cross-branch ≈ low.
	sSame, _ := r.ProductSimilarity("alg1", "alg2")
	sSib, _ := r.ProductSimilarity("alg1", "calc1")
	sCross, _ := r.ProductSimilarity("alg1", "fic1")
	if sSame < 0.999999 {
		t.Fatalf("same-descriptor similarity = %v, want 1", sSame)
	}
	if !(sSame >= sSib && sSib > sCross) {
		t.Fatalf("similarity ordering violated: same=%v sib=%v cross=%v", sSame, sSib, sCross)
	}
	// Unknown product → not ok.
	if _, ok := r.ProductSimilarity("alg1", "nope"); ok {
		t.Fatal("unknown product similarity defined")
	}
}

func TestIntraListSimilarity(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	clustered := []Recommendation{{Product: "alg1"}, {Product: "alg2"}, {Product: "calc1"}}
	mixed := []Recommendation{{Product: "alg1"}, {Product: "fic1"}, {Product: "phy1"}}
	ilsC := r.IntraListSimilarity(clustered)
	ilsM := r.IntraListSimilarity(mixed)
	if ilsC <= ilsM {
		t.Fatalf("clustered list must be more self-similar: %v vs %v", ilsC, ilsM)
	}
	if got := r.IntraListSimilarity(nil); got != 0 {
		t.Fatalf("empty list ILS = %v", got)
	}
	if got := r.IntraListSimilarity(clustered[:1]); got != 0 {
		t.Fatalf("singleton ILS = %v", got)
	}
}

func TestDiversifyThetaZeroIsIdentity(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Skip("scenario too small")
	}
	div := r.Diversify(recs, len(recs), 0)
	for i := range recs {
		if div[i] != recs[i] {
			t.Fatalf("θ=0 changed position %d", i)
		}
	}
	// Input list must not be mutated by higher θ either.
	snapshot := append([]Recommendation(nil), recs...)
	r.Diversify(recs, len(recs), 0.9)
	for i := range recs {
		if recs[i] != snapshot[i] {
			t.Fatal("Diversify mutated its input")
		}
	}
}

func TestDiversifyReducesILS(t *testing.T) {
	// On a clustered community, the accuracy-ordered top-10 concentrates
	// in the active agent's favorite branch; diversification must reduce
	// intra-list similarity while keeping the top candidate.
	cfg := datagen.SmallScale()
	cfg.Seed = 5
	cfg.ClusterFidelity = 0.95
	comm, _ := datagen.Generate(cfg)
	r, err := New(comm, Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the best-connected rated agent.
	active := comm.Agents()[0]
	best := -1
	for _, id := range comm.Agents() {
		a := comm.Agent(id)
		if d := len(a.Trust) + len(a.Ratings); d > best {
			best = d
			active = id
		}
	}
	recs, err := r.Recommend(active, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 15 {
		t.Skip("not enough candidates")
	}
	top := r.Diversify(recs, 10, 0)
	div := r.Diversify(recs, 10, 0.9)
	if div[0] != recs[0] {
		t.Fatal("diversification must keep the top candidate first")
	}
	if len(div) != 10 {
		t.Fatalf("diversified length = %d", len(div))
	}
	ilsTop, ilsDiv := r.IntraListSimilarity(top), r.IntraListSimilarity(div)
	if ilsDiv >= ilsTop {
		t.Fatalf("θ=0.9 did not reduce ILS: %v vs %v", ilsDiv, ilsTop)
	}
	// No duplicates, all drawn from the candidate set.
	seen := map[Recommendation]bool{}
	cand := map[Recommendation]bool{}
	for _, rc := range recs {
		cand[rc] = true
	}
	for _, rc := range div {
		if seen[rc] || !cand[rc] {
			t.Fatalf("bad diversified entry %+v", rc)
		}
		seen[rc] = true
	}
}

func TestDiversifyBounds(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Diversify(nil, 5, 0.5); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Diversify(recs, 1000, 0.5); len(got) != len(recs) {
		t.Fatalf("n beyond len = %d, want %d", len(got), len(recs))
	}
	if got := r.Diversify(recs, 0, 2.5); len(got) != len(recs) {
		t.Fatalf("θ clamp broke length: %d", len(got))
	}
}

// TestDiversifyIsDeterministic: the same candidates give the same list
// on every call. A served θ answer is a function of the snapshot and the
// request, which the API's response cache relies on; with map-ordered
// similarity sums near-ties between same-branch products used to flip.
func TestDiversifyIsDeterministic(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 60, 80
	comm, _ := datagen.Generate(cfg)
	r, err := New(comm, Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend(comm.Agents()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 30 {
		t.Fatalf("only %d candidates; the test needs a list long enough to hold ties", len(recs))
	}
	want := r.Diversify(recs, 0, 0.4)
	for i := 0; i < 50; i++ {
		got := r.Diversify(recs, 0, 0.4)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("call %d: position %d is %s, was %s", i, j, got[j].Product, want[j].Product)
			}
		}
	}
}

// TestContentSimilaritiesAreDeterministic: content boost, ProductSimilarity
// and IntraListSimilarity sum every cosine in key order, so 30 identical
// calls return the same bits (cosines summed in map-iteration order used
// to differ in the last bit from one call to the next).
func TestContentSimilaritiesAreDeterministic(t *testing.T) {
	comm, _ := datagen.Generate(datagen.SmallScale())
	r, err := New(comm, Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}, ContentBoost: 1})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]
	list, err := r.Recommend(active, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) < 30 {
		t.Fatalf("only %d candidates; the test needs a long list", len(list))
	}
	run := func() (recs []Recommendation, bits []uint64) {
		recs, err := r.Recommend(active, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			bits = append(bits, math.Float64bits(rec.Score))
		}
		for i := range 30 {
			for j := i + 1; j < 30; j++ {
				s, _ := r.ProductSimilarity(list[i].Product, list[j].Product)
				bits = append(bits, math.Float64bits(s))
			}
		}
		for _, n := range []int{10, 20, 30, len(list)} {
			bits = append(bits, math.Float64bits(r.IntraListSimilarity(list[:n])))
		}
		return recs, bits
	}
	wantRecs, want := run()
	for call := 1; call < 30; call++ {
		recs, got := run()
		if !slices.Equal(recs, wantRecs) || !slices.Equal(got, want) {
			t.Fatalf("call %d differs from the first", call)
		}
	}
}

// TestProductRowPathsDoNotAllocatePerTopic: once warm, every path that
// compares descriptor rows allocates the same bytes per call over a
// 341-topic and a 5,461-topic taxonomy. The rows come from the
// recommender's descriptor matrix and the scratch from its pool; a
// gatherer and scratch of taxonomy size made per call would grow with it.
func TestProductRowPathsDoNotAllocatePerTopic(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A GC may empty the pools, and a call that lands on another P misses
	// the item its predecessor put in the old P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perCall := func(f func()) float64 {
		f() // builds the matrix and fills the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const calls = 50
		for range calls {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	paths := []string{"ProductSimilarity", "IntraListSimilarity", "Diversify", "content-boost vote"}
	measure := func(cfg datagen.Config) (bytes []float64, topics int) {
		comm, _ := datagen.Generate(cfg)
		r, err := New(comm, Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}, ContentBoost: 1})
		if err != nil {
			t.Fatal(err)
		}
		prods := comm.Products()[:30]
		recs := make([]Recommendation, len(prods))
		for i, p := range prods {
			recs[i] = Recommendation{Product: p, Score: float64(len(prods) - i)}
		}
		active := comm.Agents()[0]
		peers, err := r.RankedPeers(active)
		if err != nil {
			t.Fatal(err)
		}
		return []float64{
			perCall(func() { r.ProductSimilarity(prods[0], prods[1]) }),
			perCall(func() { r.IntraListSimilarity(recs) }),
			perCall(func() { r.Diversify(recs, 10, 0.5) }),
			perCall(func() {
				if _, err := r.RecommendFromCtx(context.Background(), active, peers, 10); err != nil {
					t.Fatal(err)
				}
			}),
		}, comm.Taxonomy().Len()
	}
	small := datagen.SmallScale()
	small.Agents, small.Products = 60, 80
	// Two more levels: every leaf pool stays a power of two, so the
	// generator draws the same ratings and trust over the larger taxonomy.
	large := small
	large.Taxonomy.Depth += 2
	sb, st := measure(small)
	lb, lt := measure(large)
	if lt < 8*st {
		t.Fatalf("taxonomies of %d and %d topics: the test needs 8× between them", st, lt)
	}
	for i, path := range paths {
		if d := math.Abs(sb[i] - lb[i]); d > 0.1*max(sb[i], lb[i]) {
			t.Errorf("%s: %.0f B/call over %d topics, %.0f B/call over %d", path, sb[i], st, lb[i], lt)
		}
	}
}

// TestProductRowPathsShareSafely: goroutines that race to the descriptor
// matrix's first use, through one recommender and a WithOptions variant
// of it, and share its scratch pool get the bits one goroutine gets
// alone.
func TestProductRowPathsShareSafely(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 60, 80
	comm, _ := datagen.Generate(cfg)
	opt := Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}, ContentBoost: 1}
	prods := comm.Products()[:20]
	recs := make([]Recommendation, len(prods))
	for i, p := range prods {
		recs[i] = Recommendation{Product: p, Score: float64(len(prods) - i)}
	}
	run := func(r *Recommender) (bits []uint64) {
		for _, p := range prods {
			s, _ := r.ProductSimilarity(prods[0], p)
			bits = append(bits, math.Float64bits(s))
		}
		bits = append(bits, math.Float64bits(r.IntraListSimilarity(recs)))
		for _, rec := range r.Diversify(recs, 10, 0.5) {
			bits = append(bits, math.Float64bits(rec.Score))
		}
		boosted, err := r.Recommend(comm.Agents()[1], 10)
		if err != nil {
			t.Error(err)
		}
		for _, rec := range boosted {
			bits = append(bits, math.Float64bits(rec.Score))
		}
		return bits
	}
	alone, err := New(comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := run(alone)
	shared, err := New(comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := shared.WithOptions(Options{CF: cf.Options{Representation: cf.Taxonomy}, ContentBoost: 1, Metric: NoTrust})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]uint64, 6)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = run(shared)
			} else {
				got[g] = run(variant)[:len(prods)+11] // the variant votes differently
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if n := len(got[g]); !slices.Equal(got[g], want[:n]) {
			t.Errorf("goroutine %d: bits differ from a lone run", g)
		}
	}
}
