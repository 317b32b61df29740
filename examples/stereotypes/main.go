// Stereotypes: the §6 future-work direction — "automated stereotype
// generation and efficient behavior modelling" — on a generated
// community: learn prototypical interest profiles with spherical k-means
// over taxonomy profiles, describe them by their dominant branches,
// classify a fresh agent, and use stereotype membership as a cheap
// candidate pre-filter for collaborative filtering.
//
//	go run ./examples/stereotypes
package main

import (
	"fmt"
	"log"

	"swrec"
)

func main() {
	cfg := swrec.SmallDataset()
	cfg.Seed = 21
	cfg.ClusterFidelity = 0.9
	comm, meta := swrec.GenerateCommunity(cfg)
	fmt.Printf("community: %d agents over %d hidden interest clusters\n\n",
		comm.NumAgents(), meta.Config.Clusters)

	m, err := swrec.LearnStereotypes(comm, swrec.StereotypeOptions{K: meta.Config.Clusters})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d stereotypes (cohesion %.3f, purity vs ground truth %.3f)\n\n",
		m.K(), m.Cohesion, m.Purity(meta.AgentCluster))

	for k := 0; k < m.K(); k++ {
		fmt.Printf("stereotype %d — %d members, reads mostly:\n", k, m.Sizes[k])
		for _, tw := range m.TopTopics(k, 3) {
			fmt.Printf("   %-45s %.3f\n",
				comm.Taxonomy().QualifiedName(swrec.Topic(tw.Topic)), tw.Weight)
		}
	}

	// Behavior modelling: classify an agent by its profile alone.
	probe := comm.Agents()[17]
	k, sim, ok := m.Classify(swrec.StereotypeProfiles(comm)(probe))
	if ok {
		fmt.Printf("\nagent %s classifies into stereotype %d (similarity %.3f);\n", probe, k, sim)
		fmt.Printf("ground-truth cluster: %d\n", meta.AgentCluster[probe])
	}

	// Efficient pre-filtering: CF restricted to the agent's stereotype.
	fast, err := swrec.NewRecommender(comm, swrec.Options{
		AlphaSet: true, // similarity-only weights over the candidate set
		CF:       swrec.CFOptions{Measure: swrec.MeasureCosine, Representation: swrec.ReprTaxonomy},
		Candidates: func(active swrec.AgentID) []swrec.AgentID {
			kk, ok := m.Assignment[active]
			if !ok {
				return nil
			}
			return m.Members(kk)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	peers, err := fast.RankedPeers(probe)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := fast.Recommend(probe, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstereotype-restricted CF: %d candidates instead of %d; top picks:\n",
		len(peers), comm.NumAgents()-1)
	for i, r := range recs {
		fmt.Printf("  %d. %s (score %.2f)\n", i+1, comm.Product(r.Product).Title, r.Score)
	}
}
