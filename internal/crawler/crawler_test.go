package crawler

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"testing"

	"swrec/internal/model"
	"swrec/internal/semweb"
	"swrec/internal/store"
	"swrec/internal/taxonomy"
)

// publishWeb builds a small published community:
//
//	alice -0.9-> bob -0.8-> carol -0.7-> dave   (chain)
//	alice --(-0.5)-> eve                        (distrusted)
//	mallory: exists but unreachable by trust edges
//	bob -0.6-> zoe@offline.example              (unreachable host)
func publishWeb(t *testing.T) (*semweb.Internet, *semweb.Site) {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis", Topics: []taxonomy.Topic{alg}})

	s := semweb.NewSite("swrec.example", c)
	a := func(n string) model.AgentID { return s.AgentURL(n) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.SetTrust(a("alice"), a("bob"), 0.9))
	must(c.SetTrust(a("bob"), a("carol"), 0.8))
	must(c.SetTrust(a("carol"), a("dave"), 0.7))
	must(c.SetTrust(a("alice"), a("eve"), -0.5))
	must(c.SetTrust(a("bob"), "http://offline.example/people/zoe", 0.6))
	must(c.SetRating(a("alice"), "urn:isbn:9780553380958", 1))
	must(c.SetRating(a("bob"), "urn:isbn:9780521386326", 0.9))
	must(c.SetRating(a("dave"), "urn:isbn:9780553380958", 0.4))
	c.AddAgent(a("mallory")).Name = "Mallory"

	var in semweb.Internet
	in.RegisterSite(s)
	return &in, s
}

func TestCrawlChain(t *testing.T) {
	in, site := publishWeb(t)
	cr := &Crawler{Client: in.Client()}
	res, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Community
	if c.Taxonomy() == nil || c.Taxonomy().Len() != taxonomy.Fig1().Len() {
		t.Fatal("taxonomy not materialized")
	}
	if c.NumProducts() != 2 {
		t.Fatalf("NumProducts = %d, want 2", c.NumProducts())
	}
	for _, name := range []string{"alice", "bob", "carol", "dave"} {
		id := site.AgentURL(name)
		ag := c.Agent(id)
		if ag == nil {
			t.Fatalf("agent %s not crawled", name)
		}
	}
	if v, ok := c.Trust(site.AgentURL("alice"), site.AgentURL("bob")); !ok || v != 0.9 {
		t.Fatalf("trust lost: %v,%v", v, ok)
	}
	if v, ok := c.Rating(site.AgentURL("dave"), "urn:isbn:9780553380958"); !ok || v != 0.4 {
		t.Fatalf("deep rating lost: %v,%v", v, ok)
	}
	// eve is distrusted: her homepage is not crawled (but the distrust
	// statement itself is materialized from alice's homepage).
	if v, ok := c.Trust(site.AgentURL("alice"), site.AgentURL("eve")); !ok || v != -0.5 {
		t.Fatal("distrust statement must be materialized")
	}
	if len(c.Agent(site.AgentURL("eve")).RatedProducts()) != 0 {
		t.Fatal("distrusted homepage must not be crawled")
	}
	// mallory is unreachable: not in the crawl at all.
	if c.HasAgent(site.AgentURL("mallory")) {
		t.Fatal("unreachable agent crawled")
	}
	// zoe's host is down: counted as failure, crawl continues.
	if res.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (offline host)", res.Stats.Failed)
	}
	// 2 globals + alice,bob,carol,dave (zoe failed).
	if res.Stats.Fetched != 6 {
		t.Fatalf("Fetched = %d, want 6", res.Stats.Fetched)
	}
}

func TestCrawlFollowDistrust(t *testing.T) {
	in, site := publishWeb(t)
	cr := &Crawler{Client: in.Client(), FollowDistrust: true}
	res, err := cr.Crawl(context.Background(), "", "", []model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Community.HasAgent(site.AgentURL("eve")) {
		t.Fatal("FollowDistrust should crawl eve")
	}
}

func TestCrawlMaxDepth(t *testing.T) {
	in, site := publishWeb(t)
	cr := &Crawler{Client: in.Client(), MaxDepth: 1}
	res, err := cr.Crawl(context.Background(), "", "", []model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 0 = alice, depth 1 = bob; carol (depth 2) is skipped.
	if !res.Community.HasAgent(site.AgentURL("bob")) {
		t.Fatal("depth-1 agent missing")
	}
	if a := res.Community.Agent(site.AgentURL("carol")); a != nil && len(a.TrustedPeers()) > 0 {
		t.Fatal("depth-2 homepage must not be crawled")
	}
	if res.Stats.Skipped == 0 {
		t.Fatal("Skipped must count the cut frontier")
	}
}

func TestCrawlMaxAgents(t *testing.T) {
	in, site := publishWeb(t)
	cr := &Crawler{Client: in.Client(), MaxAgents: 2}
	res, err := cr.Crawl(context.Background(), "", "", []model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	// Only alice and bob fetched as homepages.
	if res.Stats.Fetched != 2 {
		t.Fatalf("Fetched = %d, want 2", res.Stats.Fetched)
	}
}

func TestCrawlCacheReuse(t *testing.T) {
	in, site := publishWeb(t)
	st, err := store.Open(filepath.Join(t.TempDir(), "cache.log"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cr := &Crawler{Client: in.Client(), Cache: st}
	res1, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.FromCache != 0 {
		t.Fatalf("first crawl FromCache = %d", res1.Stats.FromCache)
	}

	// Second crawl: everything comes from the cache, even with the web
	// gone (data-centric asynchronous exchange — the documents persist).
	offline := &Crawler{Client: (&semweb.Internet{}).Client(), Cache: st}
	res2, err := offline.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Fetched != 0 {
		t.Fatalf("offline crawl fetched %d docs", res2.Stats.Fetched)
	}
	if res2.Stats.FromCache != res1.Stats.Fetched {
		t.Fatalf("FromCache = %d, want %d", res2.Stats.FromCache, res1.Stats.Fetched)
	}
	if got, want := res2.Community.ComputeStats(), res1.Community.ComputeStats(); got != want {
		t.Fatalf("cached community differs: %+v vs %+v", got, want)
	}

	// Refresh re-validates conditionally: the unchanged site answers 304
	// for every document, so nothing is re-transferred.
	fresh := &Crawler{Client: in.Client(), Cache: st, Refresh: true}
	res3, err := fresh.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Fetched != 0 {
		t.Fatalf("unchanged site should answer only 304s, fetched %d", res3.Stats.Fetched)
	}
	if res3.Stats.NotModified != res1.Stats.Fetched {
		t.Fatalf("NotModified = %d, want %d", res3.Stats.NotModified, res1.Stats.Fetched)
	}

	// After a homepage changes, exactly that document is re-fetched.
	if err := site.Community().SetRating(site.AgentURL("alice"), "urn:isbn:9780521386326", 0.7); err != nil {
		t.Fatal(err)
	}
	res4, err := fresh.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{site.AgentURL("alice")})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Stats.Fetched != 1 {
		t.Fatalf("changed homepage: Fetched = %d, want 1", res4.Stats.Fetched)
	}
	if v, ok := res4.Community.Rating(site.AgentURL("alice"), "urn:isbn:9780521386326"); !ok || v != 0.7 {
		t.Fatalf("refreshed rating = %v,%v, want 0.7", v, ok)
	}
}

func TestCrawlRejectsSpoofedHomepage(t *testing.T) {
	// A document at bob's URL claiming to be alice must be dropped:
	// "spoofing and identity forging thus become facile to achieve" (§2).
	var in semweb.Internet
	spoofed := `<http://evil.example/people/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .
`
	in.Register("evil.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(spoofed))
	}))
	cr := &Crawler{Client: in.Client()}
	res, err := cr.Crawl(context.Background(), "", "",
		[]model.AgentID{"http://evil.example/people/bob"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (spoofed doc)", res.Stats.Failed)
	}
	if res.Community.HasAgent("http://evil.example/people/alice") {
		t.Fatal("spoofed identity materialized")
	}
}

func TestCrawlGarbageDocument(t *testing.T) {
	var in semweb.Internet
	in.Register("junk.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not RDF at all"))
	}))
	cr := &Crawler{Client: in.Client()}
	res, err := cr.Crawl(context.Background(), "", "",
		[]model.AgentID{"http://junk.example/people/a"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Stats.Failed)
	}
}

func TestCrawlErrors(t *testing.T) {
	in, site := publishWeb(t)
	cr := &Crawler{Client: in.Client()}
	if _, err := cr.Crawl(context.Background(), "", "", nil); !errors.Is(err, ErrNoSeeds) {
		t.Fatalf("got %v, want ErrNoSeeds", err)
	}
	// Broken taxonomy URL is fatal (the global documents are required
	// context, §3.1).
	if _, err := cr.Crawl(context.Background(), "http://offline.example/t.nt", "",
		[]model.AgentID{site.AgentURL("alice")}); err == nil {
		t.Fatal("unreachable taxonomy must fail the crawl")
	}
	// Cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cr.Crawl(ctx, "", "", []model.AgentID{site.AgentURL("alice")}); err == nil {
		t.Fatal("cancelled context must abort the crawl")
	}
}

func TestCrawlDeterministicCommunity(t *testing.T) {
	in, site := publishWeb(t)
	run := func() model.Stats {
		cr := &Crawler{Client: in.Client(), Concurrency: 4}
		res, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
			[]model.AgentID{site.AgentURL("alice")})
		if err != nil {
			t.Fatal(err)
		}
		return res.Community.ComputeStats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic crawl: %+v vs %+v", a, b)
	}
}
