package weblog

import (
	"strings"
	"testing"
	"testing/quick"

	"swrec/internal/isbn"
	"swrec/internal/model"
)

func community(t *testing.T) *model.Community {
	t.Helper()
	c := model.NewCommunity(nil)
	add := func(seq int, title string) model.ProductID {
		code := isbn.Synthesize(seq)
		id := model.ProductID(isbn.URN(code))
		c.AddProduct(model.Product{ID: id, Title: title, ISBN: code})
		return id
	}
	p1 := add(1, "Snow Crash")
	p2 := add(2, "Matrix Analysis")
	p3 := add(3, "Hated Book")
	must(t, c.SetRating("http://x/people/alice", p1, 1))
	must(t, c.SetRating("http://x/people/alice", p2, 0.4))
	must(t, c.SetRating("http://x/people/alice", p3, -0.9))
	c.Agent("http://x/people/alice").Name = "Alice"
	return c
}

func TestRenderShape(t *testing.T) {
	c := community(t)
	doc := Render(c.Agent("http://x/people/alice"), c)
	if !strings.Contains(doc, "<title>Alice's weblog</title>") {
		t.Fatalf("missing title:\n%s", doc)
	}
	// Liked books linked, hated book absent.
	if !strings.Contains(doc, "Snow Crash") || !strings.Contains(doc, "Matrix Analysis") {
		t.Fatalf("liked books missing:\n%s", doc)
	}
	if strings.Contains(doc, "Hated Book") {
		t.Fatal("negatively rated book linked")
	}
	if !strings.Contains(doc, "amazon.com/exec/obidos/ASIN/") {
		t.Fatal("no Amazon-style product link")
	}
	// FOAF auto-discovery advertised.
	if !strings.Contains(doc, `rel="meta"`) {
		t.Fatal("FOAF link missing")
	}
	// Deterministic.
	if doc != Render(c.Agent("http://x/people/alice"), c) {
		t.Fatal("Render not deterministic")
	}
}

func TestExtractLinks(t *testing.T) {
	doc := `<html><body>
<a href="http://a/1">one</a>
<A HREF='http://a/2'>two</A>
<a class="x" href="http://a/3?q=v#frag">three</a>
<a name="anchor-without-href">four</a>
<a href=http://a/5>unquoted</a>
<a href="http://a/amp?x=1&amp;y=2">amp</a>
</body></html>`
	links := ExtractLinks(doc)
	want := []string{"http://a/1", "http://a/2", "http://a/3?q=v#frag", "http://a/5", "http://a/amp?x=1&y=2"}
	if len(links) != len(want) {
		t.Fatalf("links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("link %d = %q, want %q", i, links[i], want[i])
		}
	}
	if got := ExtractLinks("no anchors here"); len(got) != 0 {
		t.Fatalf("phantom links: %v", got)
	}
	if got := ExtractLinks("<a href=\"unterminated"); len(got) != 0 {
		t.Fatalf("truncated tag yielded: %v", got)
	}
}

func TestProductFromLink(t *testing.T) {
	code13 := isbn.Synthesize(7)
	code10, err := isbn.To10(code13)
	if err != nil {
		t.Fatal(err)
	}
	wantID := model.ProductID(isbn.URN(code13))

	good := []string{
		"http://www.amazon.com/exec/obidos/ASIN/" + code13,
		"http://www.amazon.com/exec/obidos/ASIN/" + code10, // ISBN-10 canonicalized
		"http://www.amazon.com/dp/" + code13 + "/ref=sr_1_1",
		"http://www.amazon.com/gp/product/" + code13 + "?tag=x",
		"urn:isbn:" + code13,
	}
	for _, link := range good {
		got, ok := ProductFromLink(link)
		if !ok || got != wantID {
			t.Errorf("ProductFromLink(%q) = %q,%v, want %q", link, got, ok, wantID)
		}
	}
	bad := []string{
		"http://www.amazon.com/dp/notanisbn",
		"http://www.amazon.com/exec/obidos/ASIN/1234567890123", // bad checksum
		"http://example.org/some/page",
		"urn:isbn:bogus",
		"",
	}
	for _, link := range bad {
		if _, ok := ProductFromLink(link); ok {
			t.Errorf("ProductFromLink(%q) accepted", link)
		}
	}
}

func TestMineRoundTrip(t *testing.T) {
	// Render alice's weblog, mine it back: every positively rated book
	// with an ISBN returns as one implicit vote.
	c := community(t)
	alice := c.Agent("http://x/people/alice")
	doc := Render(alice, c)
	votes := Mine(alice.ID, doc)
	if len(votes) != 2 {
		t.Fatalf("votes = %+v, want 2", votes)
	}
	for _, v := range votes {
		if v.Agent != alice.ID || v.Value != ImplicitVote {
			t.Fatalf("bad vote %+v", v)
		}
		if _, rated := c.Rating(alice.ID, v.Product); !rated {
			t.Fatalf("mined product %s the author never rated", v.Product)
		}
	}
	// Votes feed straight into a community.
	c2 := model.NewCommunity(nil)
	for _, v := range votes {
		c2.AddProduct(model.Product{ID: v.Product})
		must(t, c2.SetRating(v.Agent, v.Product, v.Value))
	}
	if got := len(c2.Agent(alice.ID).RatedProducts()); got != 2 {
		t.Fatalf("materialized votes = %d", got)
	}
}

func TestMineDeduplicates(t *testing.T) {
	code := isbn.Synthesize(9)
	doc := `<a href="http://www.amazon.com/dp/` + code + `">x</a>
<a href="http://www.amazon.com/exec/obidos/ASIN/` + code + `">same book again</a>`
	votes := Mine("http://x/a", doc)
	if len(votes) != 1 {
		t.Fatalf("votes = %+v, want 1 (deduplicated)", votes)
	}
}

func TestFOAFLink(t *testing.T) {
	doc := `<html><head>
<link rel="stylesheet" href="/style.css">
<link rel="meta" type="application/rdf+xml" href="http://x/people/alice">
</head></html>`
	got, ok := FOAFLink(doc)
	if !ok || got != "http://x/people/alice" {
		t.Fatalf("FOAFLink = %q,%v", got, ok)
	}
	if _, ok := FOAFLink("<html></html>"); ok {
		t.Fatal("phantom FOAF link")
	}
	if _, ok := FOAFLink(`<link rel="stylesheet" href="/s.css">`); ok {
		t.Fatal("stylesheet link mistaken for FOAF")
	}
}

// Property: rendered weblogs always mine back to a subset of the
// author's positively rated, ISBN-carrying products, each exactly once.
func TestRenderMineProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		c := model.NewCommunity(nil)
		author := model.AgentID("http://x/p")
		c.AddAgent(author)
		liked := map[model.ProductID]bool{}
		for i := 0; i < int(n%20); i++ {
			code := isbn.Synthesize(int(seed&0xffff) + i)
			id := model.ProductID(isbn.URN(code))
			c.AddProduct(model.Product{ID: id, ISBN: code, Title: "B"})
			v := 1.0
			if i%3 == 0 {
				v = -1
			}
			if err := c.SetRating(author, id, v); err != nil {
				return false
			}
			if v > 0 {
				liked[id] = true
			}
		}
		votes := Mine(author, Render(c.Agent(author), c))
		if len(votes) != len(liked) {
			return false
		}
		for _, v := range votes {
			if !liked[v.Product] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
