package model

import (
	"fmt"
	"math/rand"
	"testing"
)

// symCommunity builds a seeded community with interleaved agent and
// product registrations, trust-materialized endpoints, and metadata
// refreshes — the materialization orders the symbol table must survive.
func symCommunity(t *testing.T, seed int64, agents, products int) *Community {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewCommunity(nil)
	for i := 0; i < products; i++ {
		c.AddProduct(Product{ID: ProductID(fmt.Sprintf("urn:p:%d", i))})
	}
	for i := 0; i < agents; i++ {
		id := AgentID(fmt.Sprintf("urn:a:%d", i))
		switch rng.Intn(3) {
		case 0:
			c.AddAgent(id)
		case 1:
			// Materialize as a trust endpoint instead of directly.
			peer := AgentID(fmt.Sprintf("urn:a:%d", rng.Intn(agents)))
			if err := c.SetTrust(id, peer, 0.5); err != nil {
				t.Fatal(err)
			}
		default:
			if err := c.SetRating(id, ProductID(fmt.Sprintf("urn:p:%d", rng.Intn(products))), 0.7); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Metadata refreshes must not move ordinals.
	for i := 0; i < products; i += 7 {
		c.AddProduct(Product{ID: ProductID(fmt.Sprintf("urn:p:%d", i)), Title: "refreshed"})
	}
	return c
}

// TestSymbolsRoundTrip: ord→id→ord and id→ord→id are identities over
// the whole ordinal space, the ordinal space is dense [0, Num*), and
// out-of-range lookups fail closed.
func TestSymbolsRoundTrip(t *testing.T) {
	c := symCommunity(t, 1, 80, 40)
	sym := c.Symbols()
	if sym.NumAgents() != c.NumAgents() || sym.NumProducts() != c.NumProducts() {
		t.Fatalf("ordinal space %d/%d, community %d/%d",
			sym.NumAgents(), sym.NumProducts(), c.NumAgents(), c.NumProducts())
	}
	for ord := int32(0); int(ord) < sym.NumAgents(); ord++ {
		id, ok := sym.AgentID(ord)
		if !ok {
			t.Fatalf("ordinal %d inside the space but unresolvable", ord)
		}
		back, ok := sym.AgentOrd(id)
		if !ok || back != ord {
			t.Fatalf("agent %s: ord %d -> id -> ord %d (ok=%v)", id, ord, back, ok)
		}
		if a := sym.AgentAt(ord); a == nil || a.ID != id || a.Ord() != ord {
			t.Fatalf("AgentAt(%d) inconsistent with AgentID/Ord", ord)
		}
	}
	for ord := int32(0); int(ord) < sym.NumProducts(); ord++ {
		id, ok := sym.ProductID(ord)
		if !ok {
			t.Fatalf("product ordinal %d inside the space but unresolvable", ord)
		}
		back, ok := sym.ProductOrd(id)
		if !ok || back != ord {
			t.Fatalf("product %s: ord %d -> id -> ord %d (ok=%v)", id, ord, back, ok)
		}
		if p := sym.ProductAt(ord); p == nil || p.ID != id || p.Ord() != ord {
			t.Fatalf("ProductAt(%d) inconsistent with ProductID/Ord", ord)
		}
	}
	if _, ok := sym.AgentID(-1); ok {
		t.Fatal("negative agent ordinal resolved")
	}
	if _, ok := sym.AgentID(int32(sym.NumAgents())); ok {
		t.Fatal("past-the-end agent ordinal resolved")
	}
	if _, ok := sym.AgentOrd("urn:a:absent"); ok {
		t.Fatal("unknown agent resolved to an ordinal")
	}
	if sym.AgentAt(int32(sym.NumAgents())) != nil || sym.ProductAt(-1) != nil {
		t.Fatal("out-of-range At lookup returned a record")
	}
}

// TestSymbolsStableAcrossEpochs pins the carry contract: after
// Clone+mutate (one ingest epoch), every pre-existing agent and product
// keeps its exact ordinal, so ordinal-keyed caches and dirty sets from
// the old epoch stay valid against the new one.
func TestSymbolsStableAcrossEpochs(t *testing.T) {
	base := symCommunity(t, 2, 60, 30)
	sym := base.Symbols()

	clone := base.Clone()
	// An epoch's worth of churn: re-trust, re-rate, refresh metadata.
	if err := clone.SetTrust("urn:a:0", "urn:a:1", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := clone.SetRating("urn:a:2", "urn:p:0", 0.1); err != nil {
		t.Fatal(err)
	}
	clone.AddProduct(Product{ID: "urn:p:0", Title: "second edition"})
	csym := clone.Symbols()

	if csym.NumAgents() != sym.NumAgents() || csym.NumProducts() != sym.NumProducts() {
		t.Fatalf("churn without joins changed the ordinal space: %d/%d -> %d/%d",
			sym.NumAgents(), sym.NumProducts(), csym.NumAgents(), csym.NumProducts())
	}
	for ord := int32(0); int(ord) < sym.NumAgents(); ord++ {
		want, _ := sym.AgentID(ord)
		got, ok := csym.AgentID(ord)
		if !ok || got != want {
			t.Fatalf("agent ordinal %d moved across the epoch: %s -> %s", ord, want, got)
		}
	}
	for ord := int32(0); int(ord) < sym.NumProducts(); ord++ {
		want, _ := sym.ProductID(ord)
		got, ok := csym.ProductID(ord)
		if !ok || got != want {
			t.Fatalf("product ordinal %d moved across the epoch: %s -> %s", ord, want, got)
		}
	}
}

// TestSymbolsFreshOrdinalsForJoins: agents and products that join in a
// later epoch take ordinals at and beyond the old NumAgents/NumProducts
// — the old epoch's ordinal space is a strict prefix of the new one.
func TestSymbolsFreshOrdinalsForJoins(t *testing.T) {
	base := symCommunity(t, 3, 50, 25)
	oldAgents, oldProducts := base.NumAgents(), base.NumProducts()

	clone := base.Clone()
	clone.AddAgent("urn:a:joined")
	// Trust against an unseen peer materializes it too.
	if err := clone.SetTrust("urn:a:joined", "urn:a:peer-joined", 0.8); err != nil {
		t.Fatal(err)
	}
	clone.AddProduct(Product{ID: "urn:p:new"})
	clone.AddProduct(Product{ID: "urn:p:bare"})
	sym := clone.Symbols()

	for i, id := range []AgentID{"urn:a:joined", "urn:a:peer-joined"} {
		ord, ok := sym.AgentOrd(id)
		if !ok {
			t.Fatalf("joined agent %s missing from the symbol table", id)
		}
		if want := int32(oldAgents + i); ord != want {
			t.Fatalf("joined agent %s: ordinal %d, want next free %d", id, ord, want)
		}
	}
	for i, id := range []ProductID{"urn:p:new", "urn:p:bare"} {
		ord, ok := sym.ProductOrd(id)
		if !ok {
			t.Fatalf("joined product %s missing from the symbol table", id)
		}
		if want := int32(oldProducts + i); ord != want {
			t.Fatalf("joined product %s: ordinal %d, want next free %d", id, ord, want)
		}
	}
	// Re-registering never re-assigns.
	clone.AddAgent("urn:a:joined")
	clone.AddProduct(Product{ID: "urn:p:new", Title: "refreshed"})
	if ord, _ := sym.AgentOrd("urn:a:joined"); ord != int32(oldAgents) {
		t.Fatal("re-adding an agent moved its ordinal")
	}
	if ord, _ := sym.ProductOrd("urn:p:new"); ord != int32(oldProducts) {
		t.Fatal("re-adding a product moved its ordinal")
	}
}

// TestSymbolsRecordTables: AgentAt/ProductAt index dense record tables,
// so they must return the very record the registry holds — pointer
// identity, not just an equal ID — for every agent and product, on a
// clone lineage that saw churn, joiners and a catalog refresh;
// and a generation's tables are its own: what it writes, appends or
// refreshes never appears in its source's.
func TestSymbolsRecordTables(t *testing.T) {
	check := func(t *testing.T, c *Community) {
		t.Helper()
		sym := c.Symbols()
		for _, id := range c.Agents() {
			a := c.Agent(id)
			if got := sym.AgentAt(a.Ord()); got != a {
				t.Fatalf("AgentAt(%d) = %p, registry holds %p for %s", a.Ord(), got, a, id)
			}
		}
		for _, id := range c.Products() {
			p := c.Product(id)
			if got := sym.ProductAt(p.Ord()); got != p {
				t.Fatalf("ProductAt(%d) = %p, registry holds %p for %s", p.Ord(), got, p, id)
			}
		}
	}
	base := symCommunity(t, 1, 80, 40)
	check(t, base)

	clone := base.Clone()
	check(t, clone)
	baseAgents, baseProducts := base.NumAgents(), base.NumProducts()
	baseTrust := len(base.Symbols().AgentAt(0).Trust)
	baseTitle := base.Product("urn:p:0").Title
	// Churn, joiners (direct and as a trust endpoint), catalog refresh.
	if err := clone.SetTrust("urn:a:0", "urn:a:1", 0.9); err != nil {
		t.Fatal(err)
	}
	clone.DeleteTrust("urn:a:0", "urn:a:1")
	if err := clone.SetTrust("urn:a:joined", "urn:a:peer-joined", 0.8); err != nil {
		t.Fatal(err)
	}
	clone.AddProduct(Product{ID: "urn:p:new"})
	clone.AddProduct(Product{ID: "urn:p:0", Title: "second edition"})
	if err := clone.SetRating("urn:a:joined", "urn:p:new", 0.6); err != nil {
		t.Fatal(err)
	}
	check(t, clone)
	check(t, clone.Clone())
	check(t, base)
	bsym := base.Symbols()
	if bsym.NumAgents() != baseAgents || bsym.NumProducts() != baseProducts {
		t.Fatalf("the clone's joiners grew its source's ordinal space to %d/%d", bsym.NumAgents(), bsym.NumProducts())
	}
	if _, ok := bsym.AgentOrd("urn:a:joined"); ok || base.Product("urn:p:new") != nil {
		t.Fatal("the clone's joiners resolve in its source's symbol table")
	}
	if len(bsym.AgentAt(0).Trust) != baseTrust || base.Product("urn:p:0").Title != baseTitle {
		t.Fatal("the clone's writes reached its source's records")
	}
	if bsym.AgentAt(0) == clone.Symbols().AgentAt(0) {
		t.Fatal("the clone wrote an agent it still shares with its source")
	}
}
