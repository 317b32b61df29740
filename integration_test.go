package swrec_test

import (
	"context"
	"strings"
	"testing"

	"swrec"
)

// TestEndToEndCentralized exercises the public API on a generated
// community: build, recommend, inspect peers.
func TestEndToEndCentralized(t *testing.T) {
	comm, meta := swrec.GenerateCommunity(swrec.SmallDataset())
	if comm.NumAgents() != meta.Config.Agents {
		t.Fatalf("agents = %d, want %d", comm.NumAgents(), meta.Config.Agents)
	}
	rec, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find an agent with both ratings and trust edges.
	var active swrec.AgentID
	for _, id := range comm.Agents() {
		a := comm.Agent(id)
		if len(a.RatedProducts()) >= 3 && len(a.TrustedPeers()) >= 2 {
			active = id
			break
		}
	}
	if active == "" {
		t.Fatal("no suitable active agent generated")
	}
	peers, err := rec.RankedPeers(active)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) == 0 {
		t.Fatal("no ranked peers")
	}
	recs, err := rec.Recommend(active, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range recs {
		if _, rated := comm.Rating(active, r.Product); rated {
			t.Fatalf("recommended already-rated product %s", r.Product)
		}
	}
}

// TestEndToEndDecentralized exercises the full §4 loop through the
// facade: publish → crawl (virtual web) → recommend from crawled data.
func TestEndToEndDecentralized(t *testing.T) {
	cfg := swrec.SmallDataset()
	cfg.Agents = 80
	cfg.Products = 120
	comm, _ := swrec.GenerateCommunity(cfg)

	site := swrec.PublishSite(cfg.BaseHost, comm)
	var in swrec.Internet
	in.RegisterSite(site)

	// Seed at the best-connected agent.
	var seed swrec.AgentID
	best := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).TrustedPeers()); d > best {
			best = d
			seed = id
		}
	}

	res, err := swrec.Crawl(context.Background(), in.Client(),
		site.TaxonomyURL(), site.CatalogURL(), []swrec.AgentID{seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Community.NumAgents() == 0 {
		t.Fatal("crawl materialized nothing")
	}
	if res.Community.Taxonomy() == nil {
		t.Fatal("taxonomy not crawled")
	}
	rec, err := swrec.NewRecommender(res.Community, swrec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recommend(seed, 5); err != nil {
		t.Fatal(err)
	}
}

// TestHomepageRoundTripFacade checks the document-level public API.
func TestHomepageRoundTripFacade(t *testing.T) {
	comm := swrec.NewCommunity(swrec.Fig1Taxonomy())
	comm.AddProduct(swrec.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash"})
	if err := comm.SetTrust("http://x/a", "http://x/b", 0.8); err != nil {
		t.Fatal(err)
	}
	if err := comm.SetRating("http://x/a", "urn:isbn:9780553380958", 1); err != nil {
		t.Fatal(err)
	}
	doc := swrec.MarshalHomepage(comm, "http://x/a")
	if !strings.Contains(doc, "foaf") {
		t.Fatalf("doc does not look like FOAF: %q", doc)
	}
	h, err := swrec.ParseHomepage(doc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Agent != "http://x/a" || len(h.Trust) != 1 || len(h.Ratings) != 1 {
		t.Fatalf("homepage = %+v", h)
	}
	if _, err := swrec.ParseHomepage("not rdf"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestMetricAndStrategySelectors sanity-checks the exported enum facade.
func TestMetricAndStrategySelectors(t *testing.T) {
	comm, _ := swrec.GenerateCommunity(swrec.SmallDataset())
	active := comm.Agents()[0]
	for _, opt := range []swrec.Options{
		{Metric: swrec.MetricAppleseed},
		{Metric: swrec.MetricAdvogato},
		{Metric: swrec.MetricPathTrust},
		{Metric: swrec.MetricNone},
		{CF: swrec.CFOptions{Measure: swrec.MeasureCosine, Representation: swrec.ReprTaxonomy}},
		{CF: swrec.CFOptions{Measure: swrec.MeasurePearson, Representation: swrec.ReprProduct}},
		{CF: swrec.CFOptions{Representation: swrec.ReprFlatCategory}},
		{Content: swrec.ContentNovelCategories},
	} {
		rec, err := swrec.NewRecommender(comm, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if _, err := rec.Recommend(active, 3); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
	}
}

// TestAllOptionsCompose runs the pipeline with every optional feature
// enabled at once — distrust-aware Appleseed, Pearson over taxonomy
// profiles, trust thresholding, Borda merge, content boost, novel
// categories, diversification — to guard against option interactions.
func TestAllOptionsCompose(t *testing.T) {
	cfg := swrec.SmallDataset()
	cfg.Seed = 9
	cfg.PopularitySkew = 1.0
	comm, _ := swrec.GenerateCommunity(cfg)
	rec, err := swrec.NewRecommender(comm, swrec.Options{
		Metric: swrec.MetricAppleseed,
		Appleseed: swrec.AppleseedOptions{
			MaxNodes:        120,
			NormExponent:    2,
			DistrustPenalty: 0.8,
			RespectDistrust: true,
		},
		CF: swrec.CFOptions{
			Measure:        swrec.MeasurePearson,
			Representation: swrec.ReprTaxonomy,
			WeightByRating: true,
			ProfileScore:   500,
		},
		TrustThreshold: 0.01,
		MaxNeighbors:   80,
		Alpha:          0.6,
		AlphaSet:       true,
		Merge:          swrec.MergeBorda,
		Content:        swrec.ContentNovelCategories,
		ContentBoost:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var active swrec.AgentID
	for _, id := range comm.Agents() {
		if len(comm.Agent(id).TrustedPeers()) >= 5 {
			active = id
			break
		}
	}
	if active == "" {
		t.Skip("no well-connected agent")
	}
	recs, err := rec.Recommend(active, 40)
	if err != nil {
		t.Fatal(err)
	}
	div := rec.Diversify(recs, 8, 0.4)
	if len(div) > 8 {
		t.Fatalf("diversified length = %d", len(div))
	}
	for _, r := range div {
		if _, rated := comm.Rating(active, r.Product); rated {
			t.Fatalf("already-rated product %s recommended", r.Product)
		}
		if r.Score <= 0 {
			t.Fatalf("non-positive score %+v", r)
		}
	}
}

// TestSybilInjectionFacade checks the attack helper through the facade.
func TestSybilInjectionFacade(t *testing.T) {
	comm, _ := swrec.GenerateCommunity(swrec.SmallDataset())
	victim := comm.Agents()[0]
	sybils := swrec.InjectSybils(comm, victim, 3, "urn:isbn:evil")
	if len(sybils) != 3 {
		t.Fatalf("sybils = %d", len(sybils))
	}
}

// TestWeblogFacade exercises the weblog render/mine loop through the
// public API against a published site.
func TestWeblogFacade(t *testing.T) {
	cfg := swrec.SmallDataset()
	cfg.Agents = 30
	cfg.Products = 40
	comm, _ := swrec.GenerateCommunity(cfg)
	site := swrec.PublishSite(cfg.BaseHost, comm)
	var in swrec.Internet
	in.RegisterSite(site)

	// Find an agent with positive ratings; its rendered weblog must mine
	// back to implicit votes attributed to its FOAF homepage.
	var blogged swrec.AgentID
	for _, id := range comm.Agents() {
		if len(comm.Agent(id).PositiveRatings()) > 0 {
			blogged = id
			break
		}
	}
	doc := swrec.RenderWeblog(comm, blogged)
	if doc == "" {
		t.Fatal("empty weblog")
	}
	if got := swrec.RenderWeblog(comm, "ghost"); got != "" {
		t.Fatal("weblog for unknown agent")
	}

	// Over HTTP: /blog/<name> of the published site.
	name := string(blogged)[strings.LastIndex(string(blogged), "/")+1:]
	author, votes, err := swrec.MineWeblog(context.Background(), in.Client(),
		site.BaseURL()+"/blog/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if author != blogged {
		t.Fatalf("author = %s, want %s", author, blogged)
	}
	if len(votes) == 0 {
		t.Fatal("no votes mined")
	}
}

// TestCorpusFacade round-trips a community through ExportCorpus/ImportCorpus.
func TestCorpusFacade(t *testing.T) {
	cfg := swrec.SmallDataset()
	cfg.Agents = 20
	cfg.Products = 25
	comm, _ := swrec.GenerateCommunity(cfg)
	dir := t.TempDir()
	if err := swrec.ExportCorpus(comm, dir); err != nil {
		t.Fatal(err)
	}
	back, err := swrec.ImportCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.ComputeStats() != comm.ComputeStats() {
		t.Fatal("corpus round trip changed the community")
	}
}

// TestStereotypeFacade sanity-checks LearnStereotypes.
func TestStereotypeFacade(t *testing.T) {
	comm, meta := swrec.GenerateCommunity(swrec.SmallDataset())
	m, err := swrec.LearnStereotypes(comm, swrec.StereotypeOptions{K: meta.Config.Clusters})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != meta.Config.Clusters {
		t.Fatalf("K = %d", m.K())
	}
	if p := m.Purity(meta.AgentCluster); p <= 1.0/float64(meta.Config.Clusters) {
		t.Fatalf("purity %v no better than chance", p)
	}
}

// TestTopicIndexAndDiversifyFacade exercises the browse and
// diversification surface through the public API.
func TestTopicIndexAndDiversifyFacade(t *testing.T) {
	comm, _ := swrec.GenerateCommunity(swrec.SmallDataset())
	ix := swrec.BuildTopicIndex(comm)
	root := swrec.Topic(0)
	if got := len(ix.Subtree(root)); got != comm.NumProducts() {
		t.Fatalf("root subtree = %d, want %d", got, comm.NumProducts())
	}
	rec, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var active swrec.AgentID
	for _, id := range comm.Agents() {
		if len(comm.Agent(id).TrustedPeers()) > 3 {
			active = id
			break
		}
	}
	recs, err := rec.Recommend(active, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 10 {
		div := rec.Diversify(recs, 10, 0.5)
		if len(div) != 10 {
			t.Fatalf("diversified = %d", len(div))
		}
		if rec.IntraListSimilarity(div) > rec.IntraListSimilarity(recs[:10])+1e-9 {
			t.Fatal("diversification increased intra-list similarity")
		}
	}
}

// TestDocumentStoreFacade checks the exported store constructor.
func TestDocumentStoreFacade(t *testing.T) {
	st, err := swrec.OpenDocumentStore(t.TempDir() + "/cache.log")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
}
