// Quickstart: build a small book community by hand — the books of the
// paper's Example 1 on the Figure 1 taxonomy fragment — and ask for
// recommendations.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"swrec"
)

func main() {
	// The taxonomy C and catalog B are the globally accessible part of
	// the information model (§3.1). Fig1Taxonomy is the paper's Amazon
	// book taxonomy fragment.
	tax := swrec.Fig1Taxonomy()
	comm := swrec.NewCommunity(tax)

	topic := func(q string) swrec.Topic {
		d, ok := tax.Lookup(q)
		if !ok {
			log.Fatalf("unknown topic %s", q)
		}
		return d
	}
	algebra := topic("Books/Science/Mathematics/Pure/Algebra")
	applied := topic("Books/Science/Mathematics/Applied")
	fiction := topic("Books/Fiction")
	physics := topic("Books/Science/Physics")

	// Products carry topic descriptors f(b) — several per product, since
	// "classification into one single category generally entails loss of
	// precision".
	for _, p := range []swrec.Product{
		{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis", Topics: []swrec.Topic{algebra, applied}},
		{ID: "urn:isbn:9780802713315", Title: "Fermat's Enigma", Topics: []swrec.Topic{applied}},
		{ID: "urn:isbn:9780553380958", Title: "Snow Crash", Topics: []swrec.Topic{fiction}},
		{ID: "urn:isbn:9780441569595", Title: "Neuromancer", Topics: []swrec.Topic{fiction}},
		{ID: "urn:isbn:9780387942223", Title: "Linear Algebra Done Right", Topics: []swrec.Topic{algebra}},
		{ID: "urn:isbn:9780679745587", Title: "A Brief History of Time", Topics: []swrec.Topic{physics}},
	} {
		comm.AddProduct(p)
	}

	// Agents publish partial trust functions t_i and rating functions
	// r_i, both in [-1, +1]; absence is ⊥, distinct from distrust.
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	check(comm.SetTrust("http://example.org/alice", "http://example.org/bob", 0.9))
	check(comm.SetTrust("http://example.org/alice", "http://example.org/carol", 0.6))
	check(comm.SetTrust("http://example.org/bob", "http://example.org/dave", 0.8))

	check(comm.SetRating("http://example.org/alice", "urn:isbn:9780521386326", 1))
	check(comm.SetRating("http://example.org/alice", "urn:isbn:9780553380958", 0.4))
	check(comm.SetRating("http://example.org/bob", "urn:isbn:9780521386326", 0.8))
	check(comm.SetRating("http://example.org/bob", "urn:isbn:9780387942223", 1))
	check(comm.SetRating("http://example.org/bob", "urn:isbn:9780802713315", 0.7))
	check(comm.SetRating("http://example.org/carol", "urn:isbn:9780441569595", 0.9))
	check(comm.SetRating("http://example.org/dave", "urn:isbn:9780679745587", 0.8))

	// The default pipeline: Appleseed trust neighborhood + taxonomy-based
	// profile similarity, blended with α = 0.5, peers voting for their
	// appreciated products.
	rec, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		log.Fatal(err)
	}

	peers, err := rec.RankedPeers("http://example.org/alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rank-synthesized peers for alice:")
	sym := comm.Symbols() // a rank names its peer by ordinal
	for _, p := range peers {
		peer, _ := sym.AgentID(p.Ord())
		fmt.Printf("  %-28s trust=%.2f sim=%.2f -> weight=%.2f\n",
			peer, p.Trust, p.Sim, p.Weight)
	}

	recs, err := rec.Recommend("http://example.org/alice", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecommendations for alice:")
	for i, r := range recs {
		fmt.Printf("  %d. %s (score %.2f, %d supporter(s))\n",
			i+1, comm.Product(r.Product).Title, r.Score, r.Supporters)
	}
}
