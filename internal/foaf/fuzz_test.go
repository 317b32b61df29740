package foaf

import (
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/isbn"
	"swrec/internal/model"
	"swrec/internal/rdf"
)

// FuzzUnmarshalHomepage feeds hostile documents through the crawler's
// decode path: rdf.ParseDocument, then Unmarshal, then ApplyTo on an
// empty community. Nothing may panic, and a homepage that decodes either
// fails to apply or leaves a community that validates — a decoded
// statement must not slip past the setters' checks.
func FuzzUnmarshalHomepage(f *testing.F) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 40, 60
	comm, _ := datagen.Generate(cfg)
	seeded, distrust := 0, false
	for _, id := range comm.Agents() {
		a := comm.Agent(id)
		hasDistrust := false
		for _, st := range a.TrustedPeers() {
			hasDistrust = hasDistrust || st.Value < 0
		}
		if seeded < 4 || hasDistrust && !distrust {
			f.Add(MarshalAgent(a).Marshal())
			seeded++
			distrust = distrust || hasDistrust
		}
	}
	if !distrust {
		f.Fatal("no generated agent states distrust; the seeds need one")
	}
	// An agent rating an ISBN the catalog does not carry.
	a := comm.Agent(comm.Agents()[0])
	h := Homepage{Agent: a.ID, Name: a.Name, Trust: a.TrustedPeers(), Ratings: a.RatedProducts()}
	h.Ratings = append(h.Ratings, model.RatingStatement{
		Agent: a.ID, Product: model.ProductID(isbn.URN(isbn.Synthesize(cfg.Products + 7))), Value: 0.5,
	})
	f.Add(Marshal(h).Marshal())

	f.Fuzz(func(t *testing.T, doc string) {
		g, err := rdf.ParseDocument(doc)
		if err != nil {
			return
		}
		h, err := Unmarshal(g)
		if err != nil {
			return
		}
		c := model.NewCommunity(nil)
		if err := h.ApplyTo(c); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("applied homepage of %q leaves an invalid community: %v", h.Agent, err)
		}
	})
}
