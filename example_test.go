package swrec_test

import (
	"fmt"

	"swrec"
)

// ExampleNewRecommender builds the paper's Example 1 community by hand
// and runs the default pipeline for one reader.
func ExampleNewRecommender() {
	tax := swrec.Fig1Taxonomy()
	comm := swrec.NewCommunity(tax)

	algebra, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	fiction, _ := tax.Lookup("Books/Fiction")
	comm.AddProduct(swrec.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis",
		Topics: []swrec.Topic{algebra}})
	comm.AddProduct(swrec.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash",
		Topics: []swrec.Topic{fiction}})
	comm.AddProduct(swrec.Product{ID: "urn:isbn:9780387942223", Title: "Linear Algebra Done Right",
		Topics: []swrec.Topic{algebra}})

	_ = comm.SetTrust("http://example.org/alice", "http://example.org/bob", 0.9)
	_ = comm.SetRating("http://example.org/alice", "urn:isbn:9780521386326", 1)
	_ = comm.SetRating("http://example.org/bob", "urn:isbn:9780521386326", 0.8)
	_ = comm.SetRating("http://example.org/bob", "urn:isbn:9780387942223", 1)

	rec, err := swrec.NewRecommender(comm, swrec.Options{})
	if err != nil {
		panic(err)
	}
	recs, err := rec.Recommend("http://example.org/alice", 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(comm.Product(recs[0].Product).Title)
	// Output: Linear Algebra Done Right
}

// ExampleMarshalHomepage shows the machine-readable homepage format (§4).
func ExampleMarshalHomepage() {
	comm := swrec.NewCommunity(nil)
	comm.AddProduct(swrec.Product{ID: "urn:isbn:9780553380958"})
	_ = comm.SetTrust("http://example.org/alice", "http://example.org/bob", 0.9)
	_ = comm.SetRating("http://example.org/alice", "urn:isbn:9780553380958", 1)

	doc := swrec.MarshalHomepage(comm, "http://example.org/alice")
	h, err := swrec.ParseHomepage(doc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s trusts %d peer(s), rates %d product(s)\n",
		h.Agent, len(h.Trust), len(h.Ratings))
	// Output: http://example.org/alice trusts 1 peer(s), rates 1 product(s)
}

// ExampleGenerateCommunity shows the §4.1-calibrated corpus generator.
func ExampleGenerateCommunity() {
	cfg := swrec.SmallDataset()
	cfg.Seed = 1
	comm, meta := swrec.GenerateCommunity(cfg)
	fmt.Printf("%d agents in %d interest clusters over %d topics\n",
		comm.NumAgents(), meta.Config.Clusters, comm.Taxonomy().Len())
	// Output: 200 agents in 6 interest clusters over 341 topics
}

// ExampleInjectSybils demonstrates the §3.2 manipulation scenario and the
// trust metric's defense.
func ExampleInjectSybils() {
	cfg := swrec.SmallDataset()
	cfg.Seed = 3
	comm, _ := swrec.GenerateCommunity(cfg)
	victim := comm.Agents()[0]
	swrec.InjectSybils(comm, victim, 10, "urn:isbn:pushed")

	hybrid, _ := swrec.NewRecommender(comm, swrec.Options{})
	recs, _ := hybrid.Recommend(victim, 10)
	for _, r := range recs {
		if r.Product == "urn:isbn:pushed" {
			fmt.Println("attack succeeded")
			return
		}
	}
	fmt.Println("attack blocked")
	// Output: attack blocked
}
