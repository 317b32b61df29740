// Trustnet: the trust-metric story of §3.2 in isolation — Appleseed's
// continuous ranks against Advogato's boolean decisions on the same
// network, and the profile-cloning sybil attack that trust filtering
// deflects while pure collaborative filtering falls for it.
//
//	go run ./examples/trustnet
package main

import (
	"fmt"
	"log"

	"swrec"
)

func main() {
	cfg := swrec.SmallDataset()
	cfg.Seed = 3
	comm, _ := swrec.GenerateCommunity(cfg)

	var source swrec.AgentID
	best := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).TrustedPeers()); d > best {
			best = d
			source = id
		}
	}
	fmt.Printf("source agent: %s (trusts %d peers directly)\n\n", source, best)

	// Appleseed: continuous trust ranks from spreading activation.
	apple, err := swrec.NewRecommender(comm, swrec.Options{Metric: swrec.MetricAppleseed})
	if err != nil {
		log.Fatal(err)
	}
	nb, err := apple.Neighborhood(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Appleseed: %d peers in range, converged in %d iterations\n",
		len(nb.Ranks), nb.Iterations)
	sym := comm.Symbols() // a rank names its peer by ordinal
	for i, r := range nb.Top(8) {
		peer, _ := sym.AgentID(r.Ord())
		fmt.Printf("  %2d. %-40s rank %.3f\n", i+1, peer, r.Trust)
	}

	// Advogato: boolean accept/reject via max-flow — "latter metric can
	// only make boolean decisions with respect to trustworthiness".
	adv, err := swrec.NewRecommender(comm, swrec.Options{Metric: swrec.MetricAdvogato})
	if err != nil {
		log.Fatal(err)
	}
	anb, err := adv.Neighborhood(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAdvogato: %d peers accepted (every rank is 1 — boolean)\n", len(anb.Ranks))

	// The §3.2 attack: sybils clone the source's profile and push a
	// product.
	push := swrec.ProductID("urn:isbn:pushed-by-sybils")
	sybils := swrec.InjectSybils(comm, source, 20, push)
	fmt.Printf("\ninjected %d sybils cloning %s's profile, all pushing %s\n",
		len(sybils), source, push)

	pure, err := swrec.NewRecommender(comm, swrec.Options{
		Metric: swrec.MetricNone, AlphaSet: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	pureRecs, err := pure.Recommend(source, 10)
	if err != nil {
		log.Fatal(err)
	}
	report("pure CF (no trust)", pureRecs, push)

	hybrid, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	hybridRecs, err := hybrid.Recommend(source, 10)
	if err != nil {
		log.Fatal(err)
	}
	report("trust-filtered hybrid", hybridRecs, push)
}

func report(name string, recs []swrec.Recommendation, push swrec.ProductID) {
	for i, r := range recs {
		if r.Product == push {
			fmt.Printf("  %-22s pushed product at rank %d — attack SUCCEEDED\n", name+":", i+1)
			return
		}
	}
	fmt.Printf("  %-22s pushed product not recommended — attack blocked\n", name+":")
}
