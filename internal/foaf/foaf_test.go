package foaf

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"swrec/internal/model"
	"swrec/internal/rdf"
	"swrec/internal/taxonomy"
)

func sampleHomepage() Homepage {
	return Homepage{
		Agent: "http://x/people/alice",
		Name:  "Alice",
		Trust: []model.TrustStatement{
			{Src: "http://x/people/alice", Dst: "http://x/people/bob", Value: 0.9},
			{Src: "http://x/people/alice", Dst: "http://x/people/carol", Value: -0.5},
		},
		Ratings: []model.RatingStatement{
			{Agent: "http://x/people/alice", Product: "urn:isbn:9782000000012", Value: 1},
			{Agent: "http://x/people/alice", Product: "urn:isbn:9782000000029", Value: -0.25},
		},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	h := sampleHomepage()
	g := Marshal(h)
	back, err := Unmarshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Agent != h.Agent || back.Name != h.Name {
		t.Fatalf("identity lost: %+v", back)
	}
	if len(back.Trust) != 2 || len(back.Ratings) != 2 {
		t.Fatalf("statements lost: %+v", back)
	}
	for i := range h.Trust {
		if back.Trust[i] != h.Trust[i] {
			t.Fatalf("trust %d: %+v != %+v", i, back.Trust[i], h.Trust[i])
		}
	}
	for i := range h.Ratings {
		if back.Ratings[i] != h.Ratings[i] {
			t.Fatalf("rating %d: %+v != %+v", i, back.Ratings[i], h.Ratings[i])
		}
	}
}

func TestMarshalWireRoundTrip(t *testing.T) {
	// Full serialize → N-Triples text → parse → extract path, as the
	// crawler does it.
	h := sampleHomepage()
	text := Marshal(h).Marshal()
	g, err := rdf.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Agent != h.Agent || len(back.Trust) != 2 || len(back.Ratings) != 2 {
		t.Fatalf("wire round trip lost data: %+v", back)
	}
	// Positive trust also emits vanilla foaf:knows for plain crawlers.
	if !strings.Contains(text, FOAFKnows) {
		t.Fatal("foaf:knows missing for positive trust")
	}
	if strings.Count(text, FOAFKnows) != 1 {
		t.Fatal("distrust must not assert foaf:knows")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	h := sampleHomepage()
	if Marshal(h).Marshal() != Marshal(h).Marshal() {
		t.Fatal("Marshal is not byte-stable")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	// No foaf:Person at all.
	g := rdf.NewGraph()
	g.AddIRI("http://x/a", "http://x/p", "http://x/b")
	if _, err := Unmarshal(g); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("got %v, want ErrNoAgent", err)
	}

	// Trust node missing its value.
	doc := `<http://x/a> <` + RDFType + `> <` + FOAFPerson + `> .
<http://x/a> <` + SWTTrusts + `> _:t0 .
_:t0 <` + SWTAgent + `> <http://x/b> .
`
	g2, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(g2); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}

	// Value out of range.
	doc3 := `<http://x/a> <` + RDFType + `> <` + FOAFPerson + `> .
<http://x/a> <` + SWTRates + `> _:r0 .
_:r0 <` + SWTProduct + `> <urn:isbn:1> .
_:r0 <` + SWTValue + `> "7"^^<` + rdf.XSDDecimal + `> .
`
	g3, err := rdf.ParseString(doc3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(g3); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}

	// NaN parses as a float and fails every comparison; a homepage that
	// states it is malformed, not a statement.
	for _, lit := range []string{"NaN", "nan", "+Inf"} {
		g, err := rdf.ParseString(strings.Replace(doc3, `"7"`, `"`+lit+`"`, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(g); !errors.Is(err, ErrMalformed) {
			t.Fatalf("value %q: got %v, want ErrMalformed", lit, err)
		}
	}

	// Non-numeric value.
	doc4 := strings.Replace(doc3, `"7"`, `"high"`, 1)
	g4, err := rdf.ParseString(doc4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(g4); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

func TestApplyTo(t *testing.T) {
	h := sampleHomepage()
	c := model.NewCommunity(nil)
	if err := h.ApplyTo(c); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Trust(h.Agent, "http://x/people/bob"); !ok || v != 0.9 {
		t.Fatalf("trust not applied: %v,%v", v, ok)
	}
	if v, ok := c.Rating(h.Agent, "urn:isbn:9782000000012"); !ok || v != 1 {
		t.Fatalf("rating not applied: %v,%v", v, ok)
	}
	// Rated products got bare catalog entries.
	if c.Product("urn:isbn:9782000000029") == nil {
		t.Fatal("rated product missing from catalog")
	}
	if c.Agent(h.Agent).Name != "Alice" {
		t.Fatal("name not applied")
	}
}

func TestMarshalAgent(t *testing.T) {
	c := model.NewCommunity(nil)
	c.AddProduct(model.Product{ID: "urn:isbn:9782000000012"})
	if err := c.SetTrust("http://x/a", "http://x/b", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRating("http://x/a", "urn:isbn:9782000000012", 0.6); err != nil {
		t.Fatal(err)
	}
	c.Agent("http://x/a").Name = "A"
	g := MarshalAgent(c.Agent("http://x/a"))
	back, err := Unmarshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "A" || len(back.Trust) != 1 || len(back.Ratings) != 1 {
		t.Fatalf("MarshalAgent round trip = %+v", back)
	}
}

func TestTaxonomyRoundTrip(t *testing.T) {
	tax := taxonomy.Fig1()
	// Add a secondary parent edge to exercise DAG serialization.
	ml := tax.MustAdd(taxonomy.Root, "Computers")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if err := tax.AddEdge(ml, alg); err != nil {
		t.Fatal(err)
	}

	g := MarshalTaxonomy(tax)
	text := g.Marshal()
	g2, err := rdf.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTaxonomy(g2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tax.Len() {
		t.Fatalf("taxonomy round trip Len = %d, want %d", back.Len(), tax.Len())
	}
	for _, d := range tax.Topics() {
		q := tax.QualifiedName(d)
		bd, ok := back.Lookup(q)
		if !ok {
			t.Fatalf("topic %q missing after round trip", q)
		}
		if back.Siblings(bd) != tax.Siblings(d) {
			t.Fatalf("sibling count changed for %q", q)
		}
	}
	// Secondary parent preserved.
	balg, _ := back.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if got := len(back.Parents(balg)); got != 2 {
		t.Fatalf("Algebra parents = %d, want 2", got)
	}
}

func TestUnmarshalTaxonomyErrors(t *testing.T) {
	g := rdf.NewGraph()
	if _, err := UnmarshalTaxonomy(g); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty doc: got %v, want ErrMalformed", err)
	}
	doc := `<` + SWCTaxonomyIRI + `> <` + SWCRootName + `> "Books" .
<` + SWCTaxonomyIRI + `> <` + SWCExtraParent + `> "garbage" .
`
	g2, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTaxonomy(g2); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad extra parent: got %v, want ErrMalformed", err)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	fic, _ := tax.Lookup("Books/Fiction")
	c := model.NewCommunity(tax)
	c.AddProduct(model.Product{
		ID: "urn:isbn:9780521386326", Title: "Matrix Analysis",
		ISBN: "9780521386326", Topics: []taxonomy.Topic{alg, fic},
	})
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash",
		Topics: []taxonomy.Topic{fic}})

	text := MarshalCatalog(c).Marshal()
	g, err := rdf.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	dst := model.NewCommunity(tax)
	if err := UnmarshalCatalog(g, dst); err != nil {
		t.Fatal(err)
	}
	if dst.NumProducts() != 2 {
		t.Fatalf("NumProducts = %d, want 2", dst.NumProducts())
	}
	p := dst.Product("urn:isbn:9780521386326")
	if p == nil || p.Title != "Matrix Analysis" || p.ISBN != "9780521386326" {
		t.Fatalf("product metadata lost: %+v", p)
	}
	if len(p.Topics) != 2 || p.Topics[0] != alg || p.Topics[1] != fic {
		t.Fatalf("topics lost: %+v", p.Topics)
	}
}

func TestUnmarshalCatalogUnknownTopic(t *testing.T) {
	doc := `<urn:isbn:1> <` + RDFType + `> <` + SWCProduct + `> .
<urn:isbn:1> <` + SWCTopic + `> "Nonexistent/Topic" .
`
	g, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	c := model.NewCommunity(taxonomy.Fig1())
	if err := UnmarshalCatalog(g, c); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
	bare := model.NewCommunity(nil)
	if err := UnmarshalCatalog(g, bare); !errors.Is(err, ErrMalformed) {
		t.Fatalf("taxonomy-less community: got %v, want ErrMalformed", err)
	}
}

// Property: random homepages survive the full wire round trip.
func TestHomepageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Homepage{Agent: model.AgentID("http://x/a" + itoa(int(seed&0xff)))}
		if rng.Intn(2) == 0 {
			h.Name = "Agent " + itoa(rng.Intn(1000))
		}
		for i := 0; i < rng.Intn(6); i++ {
			h.Trust = append(h.Trust, model.TrustStatement{
				Src: h.Agent, Dst: model.AgentID("http://x/p" + itoa(i)),
				Value: float64(rng.Intn(2001)-1000) / 1000,
			})
		}
		for i := 0; i < rng.Intn(6); i++ {
			h.Ratings = append(h.Ratings, model.RatingStatement{
				Agent: h.Agent, Product: model.ProductID("urn:isbn:" + itoa(i)),
				Value: float64(rng.Intn(2001)-1000) / 1000,
			})
		}
		g, err := rdf.ParseString(Marshal(h).Marshal())
		if err != nil {
			return false
		}
		back, err := Unmarshal(g)
		if err != nil {
			return false
		}
		if back.Agent != h.Agent || back.Name != h.Name ||
			len(back.Trust) != len(h.Trust) || len(back.Ratings) != len(h.Ratings) {
			return false
		}
		for i := range h.Trust {
			if back.Trust[i] != h.Trust[i] {
				return false
			}
		}
		for i := range h.Ratings {
			if back.Ratings[i] != h.Ratings[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatValue(t *testing.T) {
	if formatValue(0.5) != "0.5" || formatValue(-1) != "-1" {
		t.Fatal("formatValue broken")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
