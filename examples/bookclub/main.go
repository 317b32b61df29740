// Bookclub: an All Consuming-style community (§4.1) — a generated corpus
// of agents, trust edges, and implicit book votes over a deep taxonomy —
// compared across the recommendation strategies the paper discusses:
// the hybrid pipeline, pure trust, pure similarity, and the
// novel-categories content scheme of §3.4.
//
//	go run ./examples/bookclub
package main

import (
	"fmt"
	"log"

	"swrec"
)

func main() {
	cfg := swrec.SmallDataset()
	cfg.Seed = 7
	comm, meta := swrec.GenerateCommunity(cfg)
	fmt.Printf("generated community: %d readers, %d books, %d interest clusters\n",
		comm.NumAgents(), comm.NumProducts(), meta.Config.Clusters)

	// Pick a well-connected reader as the active user.
	var active swrec.AgentID
	best := -1
	for _, id := range comm.Agents() {
		a := comm.Agent(id)
		if len(a.TrustedPeers())+len(a.RatedProducts()) > best {
			best = len(a.TrustedPeers()) + len(a.RatedProducts())
			active = id
		}
	}
	fmt.Printf("active reader: %s (%d trust statements, %d ratings)\n\n",
		active, len(comm.Agent(active).TrustedPeers()), len(comm.Agent(active).RatedProducts()))

	strategies := []struct {
		name string
		opt  swrec.Options
	}{
		{"hybrid (Appleseed + taxonomy CF, α=0.5)", swrec.Options{}},
		{"pure trust (α=1)", swrec.Options{Alpha: 1}},
		{"pure similarity (no trust filter)", swrec.Options{
			Metric: swrec.MetricNone, AlphaSet: true,
		}},
		{"novel categories only (§3.4 incentive scheme)", swrec.Options{
			Content: swrec.ContentNovelCategories,
		}},
	}
	for _, s := range strategies {
		rec, err := swrec.NewRecommender(comm, s.opt)
		if err != nil {
			log.Fatal(err)
		}
		recs, err := rec.Recommend(active, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", s.name)
		if len(recs) == 0 {
			fmt.Println("  (nothing to recommend)")
		}
		for i, r := range recs {
			p := comm.Product(r.Product)
			topics := ""
			if len(p.Topics) > 0 {
				topics = comm.Taxonomy().QualifiedName(p.Topics[0])
			}
			fmt.Printf("  %d. %-12s score %.2f  %d supporters  [%s]\n",
				i+1, p.Title, r.Score, r.Supporters, topics)
		}
		fmt.Println()
	}
}
