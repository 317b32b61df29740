package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/crawler"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/semweb"
)

// E9Result summarizes the end-to-end decentralized pipeline run.
type E9Result struct {
	PublishedStats model.Stats
	CrawledStats   model.Stats
	CrawlStats     crawler.Stats
	DocsPerSecond  float64
	// ReachableMatch reports whether the crawl materialized every agent
	// reachable from the seed by positive trust edges.
	ReachableMatch bool
	// Recommendations produced from crawled data for the seed agent.
	Recommendations int
}

// E9 exercises the full §4 deployment loop at the §4.1 corpus scale (or a
// reduced scale): a community is published as FOAF/RDF homepages plus
// global taxonomy and catalog documents on a (virtual) web; a crawler
// materializes it back ("we mined rife information ... about
// approximately 9,100 users ... and categorization data about 9,953
// books"); and the recommender runs on the crawled view.
func E9(w io.Writer, p Params) (E9Result, error) {
	section(w, "E9", "decentralized pipeline: publish -> crawl -> recommend (§4.1)")
	cfg := p.Config()
	comm, _ := datagen.Generate(cfg)
	var res E9Result
	res.PublishedStats = comm.ComputeStats()

	site := semweb.NewSite(cfg.BaseHost, comm)
	var in semweb.Internet
	in.RegisterSite(site)

	// Seed with the best-connected agent to maximize the reachable set.
	var seed model.AgentID
	best := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).Trust); d > best {
			best = d
			seed = id
		}
	}

	cr := &crawler.Crawler{Client: in.Client(), Concurrency: 16}
	start := time.Now() //nolint:detrand -- crawl wall time is reported as context, not replayed state
	out, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]model.AgentID{seed})
	if err != nil {
		return res, err
	}
	elapsed := time.Since(start) //nolint:detrand -- crawl wall time is reported as context, not replayed state
	if err := out.Community.Validate(); err != nil {
		return res, fmt.Errorf("e9: crawled view violates model invariants: %w", err)
	}
	res.CrawledStats = out.Community.ComputeStats()
	res.CrawlStats = out.Stats
	docs := out.Stats.Fetched + out.Stats.FromCache
	if elapsed > 0 {
		res.DocsPerSecond = float64(docs) / elapsed.Seconds()
	}

	// Ground truth: agents reachable from the seed via positive trust.
	reachable := map[model.AgentID]bool{seed: true}
	frontier := []model.AgentID{seed}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, st := range comm.Agent(cur).TrustedPeers() {
			if st.Value > 0 && !reachable[st.Dst] {
				reachable[st.Dst] = true
				frontier = append(frontier, st.Dst)
			}
		}
	}
	res.ReachableMatch = true
	for id := range reachable {
		a := out.Community.Agent(id)
		if a == nil || len(a.Ratings) != len(comm.Agent(id).Ratings) {
			res.ReachableMatch = false
			break
		}
	}

	rec, err := core.New(out.Community, core.Options{
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		return res, err
	}
	recs, err := rec.Recommend(seed, 10)
	if err != nil {
		return res, err
	}
	res.Recommendations = len(recs)

	t := newTable(w, "", "published", "crawled")
	t.row("agents", res.PublishedStats.Agents, res.CrawledStats.Agents)
	t.row("products", res.PublishedStats.Products, res.CrawledStats.Products)
	t.row("trust edges", res.PublishedStats.TrustEdges, res.CrawledStats.TrustEdges)
	t.row("ratings", res.PublishedStats.Ratings, res.CrawledStats.Ratings)
	t.flush()
	fmt.Fprintf(w, "crawl: %d fetched, %d failed, %s docs/s; reachable set fully materialized: %v\n",
		res.CrawlStats.Fetched, res.CrawlStats.Failed, clock("%.0f", res.DocsPerSecond), res.ReachableMatch)
	fmt.Fprintf(w, "recommendations for seed from crawled data: %d\n", res.Recommendations)
	fmt.Fprintln(w, "note: crawled counts are bounded by trust-reachability from the seed —")
	fmt.Fprintln(w, "agents nobody links to stay invisible, exactly as on the real Semantic Web.")
	return res, nil
}
