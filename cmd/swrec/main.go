// Command swrec is the interactive CLI over the recommender library: it
// generates a deterministic synthetic community (the §4.1-style corpus)
// and lets you inspect agents, trust neighborhoods, interest profiles,
// and recommendations.
//
// Usage:
//
//	swrec stats       [-scale S] [-seed N] [-in DIR]
//	swrec agents      [-scale S] [-seed N] [-in DIR] [-top K]
//	swrec inspect     [-scale S] [-seed N] [-in DIR] -agent <index|URI>
//	swrec recommend   [-scale S] [-seed N] [-in DIR] -agent <index|URI> [-n 10]
//	                  [-metric appleseed|advogato|pathtrust|none]
//	                  [-measure pearson|cosine] [-repr taxonomy|flat|product]
//	                  [-alpha 0.5] [-novel]
//	swrec stereotypes [-scale S] [-seed N] [-in DIR] [-k 6] [-top K]
//	swrec export      [-scale S] [-seed N] -out DIR
//
// -in loads a corpus directory written by export instead of generating.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"

	"swrec"
	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/profile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.String("scale", "small", "dataset scale: small | paper")
	seed := fs.Int64("seed", 1, "generation seed")
	agentFlag := fs.String("agent", "", "agent index (e.g. 3) or full URI")
	n := fs.Int("n", 10, "number of recommendations")
	topK := fs.Int("top", 15, "rows to print")
	metric := fs.String("metric", "appleseed", "trust metric: appleseed | advogato | pathtrust | none")
	measure := fs.String("measure", "cosine", "similarity measure: pearson | cosine")
	repr := fs.String("repr", "taxonomy", "profile representation: taxonomy | flat | product")
	alpha := fs.Float64("alpha", 0.5, "rank synthesization blend (1 = pure trust, 0 = pure similarity)")
	novel := fs.Bool("novel", false, "recommend only from untouched taxonomy branches (§3.4)")
	theta := fs.Float64("theta", 0, "topic diversification factor in [0,1] (0 = off)")
	inDir := fs.String("in", "", "load a corpus directory instead of generating")
	outDir := fs.String("out", "", "corpus directory to export into")
	k := fs.Int("k", 6, "number of stereotypes to learn")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	var comm *swrec.Community
	if *inDir != "" {
		var err error
		comm, err = swrec.ImportCorpus(*inDir)
		if err != nil {
			fatal(err)
		}
	} else {
		cfg := datagen.SmallScale()
		if *scale == "paper" {
			cfg = datagen.PaperScale()
		}
		cfg.Seed = *seed
		comm, _ = swrec.GenerateCommunity(cfg)
	}

	switch cmd {
	case "stats":
		runStats(comm)
	case "agents":
		runAgents(comm, *topK)
	case "inspect":
		runInspect(comm, resolveAgent(comm, *agentFlag), *topK)
	case "recommend":
		opt, err := buildOptions(*metric, *measure, *repr, *alpha, *novel)
		if err != nil {
			fatal(err)
		}
		runRecommend(comm, resolveAgent(comm, *agentFlag), opt, *n, *theta)
	case "stereotypes":
		runStereotypes(comm, *k, *topK)
	case "export":
		if *outDir == "" {
			fatal(fmt.Errorf("export requires -out DIR"))
		}
		if err := swrec.ExportCorpus(comm, *outDir); err != nil {
			fatal(err)
		}
		fmt.Printf("exported %d agents, %d products to %s\n",
			comm.NumAgents(), comm.NumProducts(), *outDir)
	default:
		usage()
		os.Exit(2)
	}
}

func runStereotypes(comm *swrec.Community, k, top int) {
	m, err := swrec.LearnStereotypes(comm, swrec.StereotypeOptions{K: k})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("learned %d stereotypes from %d profiles (cohesion %.3f, %d iterations)\n\n",
		m.K(), len(m.Assignment), m.Cohesion, m.Iterations)
	branches := 4
	if top > 0 && top < branches {
		branches = top
	}
	for s := 0; s < m.K(); s++ {
		fmt.Printf("stereotype %d: %d members; dominant branches:\n", s, m.Sizes[s])
		for _, tw := range m.TopTopics(s, branches) {
			fmt.Printf("  %-50s %.3f\n",
				comm.Taxonomy().QualifiedName(swrec.Topic(tw.Topic)), tw.Weight)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `swrec — Semantic Web recommender CLI
subcommands: stats | agents | inspect | recommend | stereotypes | export (see -h of each)`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swrec:", err)
	os.Exit(1)
}

// resolveAgent accepts a numeric index into the generated agent list or a
// full agent URI.
func resolveAgent(comm *swrec.Community, s string) swrec.AgentID {
	if s == "" {
		fatal(fmt.Errorf("missing -agent (index or URI); try 'swrec agents' first"))
	}
	if idx, err := strconv.Atoi(s); err == nil {
		ids := comm.Agents()
		if idx < 0 || idx >= len(ids) {
			fatal(fmt.Errorf("agent index %d out of range [0,%d)", idx, len(ids)))
		}
		return ids[idx]
	}
	id := swrec.AgentID(s)
	if !comm.HasAgent(id) {
		fatal(fmt.Errorf("unknown agent %s", s))
	}
	return id
}

func buildOptions(metric, measure, repr string, alpha float64, novel bool) (swrec.Options, error) {
	var opt swrec.Options
	var err error
	if opt.Metric, err = core.ParseMetric(metric); err != nil {
		return opt, err
	}
	if opt.CF.Measure, err = cf.ParseMeasure(measure); err != nil {
		return opt, err
	}
	switch repr {
	case "taxonomy":
		opt.CF.Representation = swrec.ReprTaxonomy
	case "flat":
		opt.CF.Representation = swrec.ReprFlatCategory
	case "product":
		opt.CF.Representation = swrec.ReprProduct
	default:
		return opt, fmt.Errorf("unknown representation %q", repr)
	}
	opt.Alpha = alpha
	opt.AlphaSet = true
	if novel {
		opt.Content = swrec.ContentNovelCategories
	}
	return opt, nil
}

func runStats(comm *swrec.Community) {
	s := comm.ComputeStats()
	ts := comm.Taxonomy().ComputeStats()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "agents\t%d\n", s.Agents)
	fmt.Fprintf(tw, "products\t%d\n", s.Products)
	fmt.Fprintf(tw, "trust edges\t%d (%.2f/agent, %d distrust)\n", s.TrustEdges, s.MeanTrustDeg, s.DistrustEdges)
	fmt.Fprintf(tw, "ratings\t%d (%.2f/agent)\n", s.Ratings, s.MeanRatings)
	fmt.Fprintf(tw, "taxonomy topics\t%d (max depth %d, %d leaves)\n", ts.Topics, ts.MaxDepth, ts.Leaves)
	tw.Flush()
}

func runAgents(comm *swrec.Community, top int) {
	type row struct {
		idx     int
		id      swrec.AgentID
		trust   int
		ratings int
	}
	var rows []row
	for i, id := range comm.Agents() {
		a := comm.Agent(id)
		rows = append(rows, row{i, id, len(a.TrustedPeers()), len(a.RatedProducts())})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].trust > rows[j].trust })
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "index\tagent\ttrust out-deg\tratings")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\n", r.idx, r.id, r.trust, r.ratings)
	}
	tw.Flush()
}

func runInspect(comm *swrec.Community, id swrec.AgentID, top int) {
	a := comm.Agent(id)
	fmt.Printf("agent: %s (%s)\n", id, a.Name)
	fmt.Printf("trust statements: %d, ratings: %d\n\n", len(a.TrustedPeers()), len(a.RatedProducts()))

	// Top taxonomy interests.
	prof, err := profile.New(comm.Taxonomy()).ProfileCtx(context.Background(), a, comm)
	if err != nil {
		fatal(err)
	}
	fmt.Println("top interest topics (Eq. 3 profile):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, i := range prof.TopK(top) {
		fmt.Fprintf(tw, "  %s\t%.2f\n", comm.Taxonomy().QualifiedName(swrec.Topic(prof.Keys[i])), prof.Vals[i])
	}
	tw.Flush()

	// Trust neighborhood.
	rec, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		fatal(err)
	}
	nb, err := rec.Neighborhood(id)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nAppleseed neighborhood: %d peers in range (converged in %d iterations)\n",
		len(nb.Ranks), nb.Iterations)
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	sym := comm.Symbols()
	for _, r := range nb.Top(top) {
		peer, _ := sym.AgentID(r.Ord())
		fmt.Fprintf(tw, "  %s\ttrust %.3f\n", peer, r.Trust)
	}
	tw.Flush()
}

func runRecommend(comm *swrec.Community, id swrec.AgentID, opt swrec.Options, n int, theta float64) {
	rec, err := swrec.NewRecommender(comm, opt)
	if err != nil {
		fatal(err)
	}
	peers, err := rec.RankedPeers(id)
	if err != nil {
		fatal(err)
	}
	fetchN := n
	if theta > 0 && n > 0 {
		fetchN = n * 5 // deeper candidate pool for the re-ranking
	}
	recs, err := rec.Recommend(id, fetchN)
	if err != nil {
		fatal(err)
	}
	if theta > 0 {
		recs = rec.Diversify(recs, n, theta)
	}
	fmt.Printf("agent: %s\nmetric=%v measure=%v repr=%v alpha=%.2f peers=%d\n\n",
		id, opt.Metric, opt.CF.Measure, opt.CF.Representation, optAlpha(opt), len(peers))
	if len(recs) == 0 {
		fmt.Println("no recommendations (empty neighborhood or nothing unseen)")
		return
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tproduct\ttitle\tscore\tsupporters")
	for i, r := range recs {
		title := ""
		if p := comm.Product(r.Product); p != nil {
			title = p.Title
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.3f\t%d\n", i+1, r.Product, title, r.Score, r.Supporters)
	}
	tw.Flush()
}

// optAlpha mirrors core's default resolution for display.
func optAlpha(opt swrec.Options) float64 {
	if !opt.AlphaSet && opt.Alpha == 0 {
		return 0.5
	}
	return opt.Alpha
}
