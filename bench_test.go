// Benchmarks, one (or more) per experiment in DESIGN.md's index (E1–E9),
// plus the ablation benches of DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks measure the hot path of each experiment at small scale;
// cmd/experiments regenerates the full tables.
package swrec_test

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"swrec"
	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/crawler"
	"swrec/internal/datagen"
	"swrec/internal/eval"
	"swrec/internal/experiments"
	"swrec/internal/foaf"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/rdf"
	"swrec/internal/semweb"
	"swrec/internal/stereotype"
	"swrec/internal/taxonomy"
	"swrec/internal/trust"
	"swrec/internal/weblog"
)

// benchCommunity lazily builds one shared small community for benches.
var benchCommunity = sync.OnceValue(func() *model.Community {
	comm, _ := datagen.Generate(datagen.SmallScale())
	return comm
})

// benchActive returns a well-connected agent of the shared community.
var benchActive = sync.OnceValue(func() model.AgentID {
	comm := benchCommunity()
	var best model.AgentID
	deg := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).TrustedPeers()); d > deg {
			deg = d
			best = id
		}
	}
	return best
})

// --- E1: taxonomy profile generation (Example 1 propagation) ---

func BenchmarkE1PropagateLeaf(b *testing.B) {
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	st := profile.New(tax).NewStreamer()
	p := &model.Product{Topics: []taxonomy.Topic{alg}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := profmat.NewGatherer(tax.Len(), 8)
		st.ProductDense(p, out)
		out.Gather()
	}
}

func BenchmarkE1ProfileGeneration(b *testing.B) {
	comm := benchCommunity()
	g := profile.New(comm.Taxonomy())
	active := benchActive()
	a := comm.Agent(active)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = g.ProfileCtx(context.Background(), a, comm)
	}
}

// --- E2: trust vs similarity correlation measurement ---

func BenchmarkE2TrustSimilarityCorrelation(b *testing.B) {
	comm := benchCommunity()
	f, err := cf.New(comm, cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.TrustVsRandomSimilarity(comm, f, 100, rng)
	}
}

// --- E3: trust metrics ---

func BenchmarkE3Appleseed(b *testing.B) {
	comm := benchCommunity()
	adj, src := comm.Adjacency(), comm.Agent(benchActive()).Ord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trust.Appleseed(context.Background(), adj, src, trust.AppleseedOptions{MaxNodes: 200}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Advogato(b *testing.B) {
	comm := benchCommunity()
	adj, src := comm.Adjacency(), comm.Agent(benchActive()).Ord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trust.Advogato(adj, src, trust.AdvogatoOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3PathTrust(b *testing.B) {
	comm := benchCommunity()
	adj, src := comm.Adjacency(), comm.Agent(benchActive()).Ord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trust.PathTrust(adj, src, trust.PathTrustOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: attack resistance (one full injected-attack evaluation) ---

func BenchmarkE4AttackResistance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := datagen.SmallScale()
		comm, _ := datagen.Generate(cfg)
		victim := comm.Agents()[0]
		datagen.InjectSybils(comm, victim, 10, "urn:isbn:attack")
		rec, err := core.New(comm, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Recommend(victim, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: profile overlap fractions per representation ---

func benchOverlap(b *testing.B, repr cf.Representation) {
	comm := benchCommunity()
	ids := comm.Agents()
	if len(ids) > 40 {
		ids = ids[:40]
	}
	f, err := cf.New(comm, cf.Options{Measure: cf.Pearson, Representation: repr})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.DefinedPairFraction(ids)
	}
}

func BenchmarkE5OverlapProduct(b *testing.B)  { benchOverlap(b, cf.Product) }
func BenchmarkE5OverlapFlat(b *testing.B)     { benchOverlap(b, cf.FlatCategory) }
func BenchmarkE5OverlapTaxonomy(b *testing.B) { benchOverlap(b, cf.Taxonomy) }

// --- E6: scalability — full scan vs trust-prefiltered recommendation ---

func benchRecommend(b *testing.B, opt core.Options) {
	comm := benchCommunity()
	rec, err := core.New(comm, opt)
	if err != nil {
		b.Fatal(err)
	}
	active := benchActive()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Recommend(active, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6FullScanCF(b *testing.B) {
	benchRecommend(b, core.Options{
		Metric:   core.NoTrust,
		AlphaSet: true,
		CF:       cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
}

func BenchmarkE6TrustPrefiltered(b *testing.B) {
	benchRecommend(b, core.Options{
		Appleseed: trust.AppleseedOptions{MaxNodes: 150},
		CF:        cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
}

// --- E7: full hybrid pipeline recommendation ---

func BenchmarkE7HybridRecommend(b *testing.B) {
	benchRecommend(b, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
}

func BenchmarkE7LeaveOneOutTrial(b *testing.B) {
	comm := benchCommunity()
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.LeaveOneOut(comm, factory, 10, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: taxonomy shape (deep vs broad profile generation) ---

func benchShapeProfile(b *testing.B, levels []int) {
	cfg := datagen.SmallScale()
	cfg.Taxonomy = datagen.TaxonomyConfig{Levels: levels, Root: "Books"}
	comm, _ := datagen.Generate(cfg)
	g := profile.New(comm.Taxonomy())
	a := comm.Agent(comm.Agents()[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.ProfileCtx(context.Background(), a, comm)
	}
}

func BenchmarkE8DeepTaxonomyProfile(b *testing.B)  { benchShapeProfile(b, []int{6, 6, 6, 6}) }
func BenchmarkE8BroadTaxonomyProfile(b *testing.B) { benchShapeProfile(b, []int{6, 216}) }

// --- E9: decentralized pipeline (publish → crawl) ---

func BenchmarkE9CrawlPipeline(b *testing.B) {
	cfg := datagen.SmallScale()
	cfg.Agents = 80
	cfg.Products = 100
	comm, _ := datagen.Generate(cfg)
	site := semweb.NewSite(cfg.BaseHost, comm)
	var in semweb.Internet
	in.RegisterSite(site)
	var seed model.AgentID
	deg := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).TrustedPeers()); d > deg {
			deg = d
			seed = id
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := &crawler.Crawler{Client: in.Client()}
		if _, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
			[]model.AgentID{seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

func benchPropagationMode(b *testing.B, mode profile.Mode) {
	comm := benchCommunity()
	g := profile.New(comm.Taxonomy())
	g.Mode = mode
	a := comm.Agent(benchActive())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.ProfileCtx(context.Background(), a, comm)
	}
}

func BenchmarkAblationPropagationEq3(b *testing.B)     { benchPropagationMode(b, profile.Eq3) }
func BenchmarkAblationPropagationUniform(b *testing.B) { benchPropagationMode(b, profile.Uniform) }
func BenchmarkAblationPropagationFlat(b *testing.B)    { benchPropagationMode(b, profile.Flat) }

func benchAppleseedBackprop(b *testing.B, noBackprop bool) {
	comm := benchCommunity()
	adj, src := comm.Adjacency(), comm.Agent(benchActive()).Ord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trust.Appleseed(context.Background(), adj, src, trust.AppleseedOptions{
			MaxNodes: 200, NoBackprop: noBackprop,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBackpropOn(b *testing.B)  { benchAppleseedBackprop(b, false) }
func BenchmarkAblationBackpropOff(b *testing.B) { benchAppleseedBackprop(b, true) }

func benchMeasure(b *testing.B, m cf.Measure) {
	comm := benchCommunity()
	f, err := cf.New(comm, cf.Options{Measure: m, Representation: cf.Taxonomy})
	if err != nil {
		b.Fatal(err)
	}
	ids := comm.Agents()
	a := benchActive()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.NearestNeighbors(a, ids, 10)
	}
}

func BenchmarkAblationMeasurePearson(b *testing.B) { benchMeasure(b, cf.Pearson) }
func BenchmarkAblationMeasureCosine(b *testing.B)  { benchMeasure(b, cf.Cosine) }

// --- Substrate micro-benches ---

func BenchmarkRDFHomepageMarshal(b *testing.B) {
	comm := benchCommunity()
	a := comm.Agent(benchActive())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		foaf.MarshalAgent(comm, a)
	}
}

func BenchmarkRDFHomepageParse(b *testing.B) {
	comm := benchCommunity()
	doc := foaf.MarshalAgent(comm, comm.Agent(benchActive())).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := rdf.ParseString(doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := foaf.Unmarshal(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocumentStorePutGet(b *testing.B) {
	st, err := swrec.OpenDocumentStore(b.TempDir() + "/bench.log")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "doc" + string(rune('a'+i%26))
		if err := st.Put(key, val); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatagenSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		datagen.Generate(datagen.SmallScale())
	}
}

// --- E10: stereotype learning & classification ---

func BenchmarkE10StereotypeLearn(b *testing.B) {
	comm := benchCommunity()
	// Profiles compiles the profile matrix once; learning cost is what we
	// measure.
	profiles := stereotype.Profiles(comm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stereotype.Learn(comm.Agents(), profiles, stereotype.Options{K: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10StereotypeClassify(b *testing.B) {
	comm := benchCommunity()
	profiles := stereotype.Profiles(comm)
	m, err := stereotype.Learn(comm.Agents(), profiles, stereotype.Options{K: 6})
	if err != nil {
		b.Fatal(err)
	}
	v := profiles(benchActive())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Classify(v)
	}
}

// --- E11: topic diversification ---

func BenchmarkE11Diversify(b *testing.B) {
	comm := benchCommunity()
	rec, err := core.New(comm, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		b.Fatal(err)
	}
	recs, err := rec.Recommend(benchActive(), 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Diversify(recs, 10, 0.5)
	}
}

// --- Ablation: graded distrust penalty ---

func benchDistrustPenalty(b *testing.B, gamma float64) {
	comm := benchCommunity()
	adj, src := comm.Adjacency(), comm.Agent(benchActive()).Ord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trust.Appleseed(context.Background(), adj, src, trust.AppleseedOptions{
			MaxNodes: 200, DistrustPenalty: gamma,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistrustOff(b *testing.B)  { benchDistrustPenalty(b, 0) }
func BenchmarkAblationDistrustFull(b *testing.B) { benchDistrustPenalty(b, 1) }

// --- Ablation: content boost ---

func BenchmarkAblationContentBoost(b *testing.B) {
	benchRecommend(b, core.Options{
		CF:           cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		ContentBoost: 1,
	})
}

// --- Substrates added for the §4 deployment path ---

func BenchmarkTurtleMarshal(b *testing.B) {
	comm := benchCommunity()
	g := foaf.MarshalAgent(comm, comm.Agent(benchActive()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MarshalTurtle()
	}
}

func BenchmarkTurtleParse(b *testing.B) {
	comm := benchCommunity()
	doc := foaf.MarshalAgent(comm, comm.Agent(benchActive())).MarshalTurtle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseTurtle(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeblogRenderMine(b *testing.B) {
	comm := benchCommunity()
	a := comm.Agent(benchActive())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := weblog.Render(a, comm)
		weblog.Mine(a.ID, doc)
	}
}

func BenchmarkPrecisionRecall(b *testing.B) {
	comm := benchCommunity()
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.PrecisionRecall(comm, factory, []int{5, 20}, 3, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentTables runs the fast experiments end to end (table
// generation included), guarding against regressions in the harness
// itself.
func BenchmarkExperimentTables(b *testing.B) {
	p := experiments.Params{Seed: 1, Scale: "small"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}
