// Command crawld demonstrates the decentralized deployment of §4 over
// real HTTP: it generates a community, publishes it as FOAF/RDF homepages
// (plus the global taxonomy and catalog documents) on a local HTTP
// server, crawls it back through the network stack into a persistent
// document store, and produces recommendations from the crawled view.
//
// Usage:
//
//	crawld [-addr 127.0.0.1:0] [-scale small|paper] [-seed 1]
//	       [-cache crawl-cache.log] [-serve]
//
// With -serve the process keeps the publisher running (for poking at the
// documents with curl) instead of exiting after the crawl.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"swrec"
	"swrec/internal/datagen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address for the publisher")
	scale := flag.String("scale", "small", "dataset scale: small | paper")
	seed := flag.Int64("seed", 1, "generation seed")
	cache := flag.String("cache", "", "path to a persistent crawl cache (empty = none); a cache in the store's earlier record format is refused as corrupt: delete it and re-crawl")
	serve := flag.Bool("serve", false, "keep serving after the crawl (Ctrl-C to stop)")
	flag.Parse()

	cfg := datagen.SmallScale()
	if *scale == "paper" {
		cfg = datagen.PaperScale()
	}
	cfg.Seed = *seed

	// The community's agent IDs must match the URL the server is actually
	// reachable under, so listen first and generate with that host.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	cfg.BaseHost = ln.Addr().String()
	comm, _ := swrec.GenerateCommunity(cfg)
	site := swrec.PublishSite(cfg.BaseHost, comm)

	srv := &http.Server{Handler: site}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	fmt.Printf("publishing %d agent homepages + catalog + taxonomy at http://%s/\n",
		comm.NumAgents(), cfg.BaseHost)
	fmt.Printf("  try: curl http://%s/people/a0\n", cfg.BaseHost)
	fmt.Printf("  try: curl http://%s/taxonomy.nt | head\n\n", cfg.BaseHost)

	// Crawl it back over real HTTP, seeding at the best-connected agent.
	var seedAgent swrec.AgentID
	best := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).Trust); d > best {
			best = d
			seedAgent = id
		}
	}
	cr := &swrec.Crawler{Client: http.DefaultClient, Concurrency: 16}
	if *cache != "" {
		st, err := swrec.OpenDocumentStore(*cache)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		cr.Cache = st
	}
	start := time.Now()
	res, err := cr.Crawl(context.Background(), site.TaxonomyURL(), site.CatalogURL(),
		[]swrec.AgentID{seedAgent})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	cs := res.Community.ComputeStats()
	fmt.Printf("crawl finished in %v: %d fetched, %d from cache, %d failed\n",
		elapsed.Round(time.Millisecond), res.Stats.Fetched, res.Stats.FromCache, res.Stats.Failed)
	fmt.Printf("materialized: %d agents, %d products, %d trust edges, %d ratings\n",
		cs.Agents, cs.Products, cs.TrustEdges, cs.Ratings)
	if cr.Cache != nil {
		st := cr.Cache.Stats()
		fmt.Printf("cache: %d documents, %d bytes on disk\n", st.LiveKeys, st.FileBytes)
	}

	rec, err := swrec.NewRecommender(res.Community, swrec.Options{})
	if err != nil {
		fatal(err)
	}
	recs, err := rec.Recommend(seedAgent, 5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ntop recommendations for crawl seed %s:\n", seedAgent)
	for i, r := range recs {
		title := ""
		if p := res.Community.Product(r.Product); p != nil {
			title = p.Title
		}
		fmt.Printf("  %d. %s %s (score %.3f, %d supporters)\n",
			i+1, r.Product, title, r.Score, r.Supporters)
	}

	if *serve {
		fmt.Println("\nserving until interrupted...")
		select {}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

func fatal(err error) {
	// Avoid raw %v on wrapped errors spanning lines in terminals.
	fmt.Fprintln(os.Stderr, "crawld:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
