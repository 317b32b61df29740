package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swrec/internal/taxonomy"
)

func TestAddAgentIdempotent(t *testing.T) {
	c := NewCommunity(nil)
	a1 := c.AddAgent("http://x/alice")
	a2 := c.AddAgent("http://x/alice")
	if a1 != a2 {
		t.Fatal("AddAgent created a second record for the same ID")
	}
	if c.NumAgents() != 1 {
		t.Fatalf("NumAgents = %d, want 1", c.NumAgents())
	}
}

func TestSetTrustValidation(t *testing.T) {
	c := NewCommunity(nil)
	if err := c.SetTrust("a", "a", 0.5); !errors.Is(err, ErrSelfTrust) {
		t.Fatalf("self trust: got %v, want ErrSelfTrust", err)
	}
	if err := c.SetTrust("a", "b", 1.5); !errors.Is(err, ErrValueRange) {
		t.Fatalf("out of range: got %v, want ErrValueRange", err)
	}
	if err := c.SetTrust("a", "b", -1.5); !errors.Is(err, ErrValueRange) {
		t.Fatalf("out of range: got %v, want ErrValueRange", err)
	}
	// NaN is false under every comparison; it is not a value in [-1,+1].
	if err := c.SetTrust("a", "b", math.NaN()); !errors.Is(err, ErrValueRange) {
		t.Fatalf("NaN: got %v, want ErrValueRange", err)
	}
	if err := c.SetTrust("a", "b", 0.7); err != nil {
		t.Fatal(err)
	}
	// Both endpoints materialized.
	if !c.HasAgent("a") || !c.HasAgent("b") {
		t.Fatal("SetTrust must materialize both endpoints")
	}
	v, ok := c.Trust("a", "b")
	if !ok || v != 0.7 {
		t.Fatalf("Trust = %v,%v, want 0.7,true", v, ok)
	}
	// Partiality: unknown pairs are ⊥.
	if _, ok := c.Trust("b", "a"); ok {
		t.Fatal("unset trust must be ⊥")
	}
	if _, ok := c.Trust("nobody", "a"); ok {
		t.Fatal("unknown agent must be ⊥")
	}
}

func TestDistrustIsDistinctFromAbsence(t *testing.T) {
	c := NewCommunity(nil)
	if err := c.SetTrust("a", "b", -1); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Trust("a", "b")
	if !ok || v != -1 {
		t.Fatal("explicit distrust must be stored, not treated as absence")
	}
	st := c.ComputeStats()
	if st.DistrustEdges != 1 {
		t.Fatalf("DistrustEdges = %d, want 1", st.DistrustEdges)
	}
}

func TestSetRatingRequiresCatalogEntry(t *testing.T) {
	c := NewCommunity(nil)
	if err := c.SetRating("a", "urn:isbn:1", 0.9); !errors.Is(err, ErrUnknownProduct) {
		t.Fatalf("got %v, want ErrUnknownProduct", err)
	}
	c.AddProduct(Product{ID: "urn:isbn:1", Title: "Snow Crash"})
	for _, v := range []float64{2, math.NaN()} {
		if err := c.SetRating("a", "urn:isbn:1", v); !errors.Is(err, ErrValueRange) {
			t.Fatalf("rating %v: got %v, want ErrValueRange", v, err)
		}
	}
	if err := c.SetRating("a", "urn:isbn:1", 0.9); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Rating("a", "urn:isbn:1")
	if !ok || v != 0.9 {
		t.Fatalf("Rating = %v,%v", v, ok)
	}
}

func TestAddProductReplacesMetadata(t *testing.T) {
	c := NewCommunity(nil)
	c.AddProduct(Product{ID: "p", Title: "old"})
	c.AddProduct(Product{ID: "p", Title: "new"})
	if c.NumProducts() != 1 {
		t.Fatalf("NumProducts = %d, want 1", c.NumProducts())
	}
	if got := c.Product("p").Title; got != "new" {
		t.Fatalf("Title = %q, want new", got)
	}
}

func TestTrustedPeersOrdering(t *testing.T) {
	c := NewCommunity(nil)
	must(t, c.SetTrust("a", "c", 0.5))
	must(t, c.SetTrust("a", "b", 0.5))
	must(t, c.SetTrust("a", "d", 0.9))
	must(t, c.SetTrust("a", "e", -0.2))
	peers := c.TrustStatements(c.Agent("a"))
	want := []AgentID{"d", "b", "c", "e"}
	for i, p := range peers {
		if p.Dst != want[i] {
			t.Fatalf("peer %d = %s, want %s", i, p.Dst, want[i])
		}
	}
}

func TestRatedProductsOrdering(t *testing.T) {
	c := NewCommunity(nil)
	for _, id := range []ProductID{"p1", "p2", "p3"} {
		c.AddProduct(Product{ID: id})
	}
	must(t, c.SetRating("a", "p2", 0.1))
	must(t, c.SetRating("a", "p1", 0.9))
	must(t, c.SetRating("a", "p3", 0.9))
	rs := c.RatingStatements(c.Agent("a"))
	want := []ProductID{"p1", "p3", "p2"}
	for i, r := range rs {
		if r.Product != want[i] {
			t.Fatalf("rating %d = %s, want %s", i, r.Product, want[i])
		}
	}
}

func TestAgentsDeterministicOrder(t *testing.T) {
	c := NewCommunity(nil)
	ids := []AgentID{"z", "a", "m", "b"}
	for _, id := range ids {
		c.AddAgent(id)
	}
	got := c.Agents()
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("Agents()[%d] = %s, want insertion order %s", i, got[i], ids[i])
		}
	}
}

func TestComputeStats(t *testing.T) {
	c := NewCommunity(taxonomy.Fig1())
	c.AddProduct(Product{ID: "p1"})
	c.AddProduct(Product{ID: "p2"})
	must(t, c.SetTrust("a", "b", 1))
	must(t, c.SetTrust("a", "c", -0.5))
	must(t, c.SetTrust("b", "c", 0.3))
	must(t, c.SetRating("a", "p1", 0.5))
	must(t, c.SetRating("b", "p1", 0.5))
	must(t, c.SetRating("b", "p2", -0.5))
	s := c.ComputeStats()
	if s.Agents != 3 || s.Products != 2 || s.TrustEdges != 3 || s.Ratings != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DistrustEdges != 1 {
		t.Fatalf("DistrustEdges = %d, want 1", s.DistrustEdges)
	}
	if s.MeanTrustDeg != 1 || s.MeanRatings != 1 {
		t.Fatalf("means = %v, %v, want 1, 1", s.MeanTrustDeg, s.MeanRatings)
	}
}

func TestValidate(t *testing.T) {
	c := NewCommunity(taxonomy.Fig1())
	c.AddProduct(Product{ID: "p1"})
	must(t, c.SetTrust("a", "b", 0.5))
	must(t, c.SetRating("a", "p1", 0.5))
	if err := c.Validate(); err != nil {
		t.Fatalf("clean community invalid: %v", err)
	}
	// A descriptor is the one fact no setter checks (as a buggy crawler
	// or manual mutation would leave it).
	c.Product("p1").Topics = []taxonomy.Topic{9999}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-taxonomy descriptor accepted")
	}
	c.Product("p1").Topics = nil
	if err := c.Validate(); err != nil {
		t.Fatalf("restored community invalid: %v", err)
	}
}

// Property: generated communities always validate.
func TestValidateGeneratedProperty(t *testing.T) {
	f := func(seed int64) bool {
		return randomCommunity(seed, 25, 15).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomCommunity builds a small random community for property tests.
func randomCommunity(seed int64, agents, products int) *Community {
	rng := rand.New(rand.NewSource(seed))
	c := NewCommunity(nil)
	ids := make([]AgentID, agents)
	for i := range ids {
		ids[i] = AgentID("http://x/a" + string(rune('A'+i%26)) + itoa(i))
		c.AddAgent(ids[i])
	}
	pids := make([]ProductID, products)
	for i := range pids {
		pids[i] = ProductID("urn:p:" + itoa(i))
		c.AddProduct(Product{ID: pids[i]})
	}
	for i := 0; i < agents*3; i++ {
		src, dst := ids[rng.Intn(agents)], ids[rng.Intn(agents)]
		if src == dst {
			continue
		}
		_ = c.SetTrust(src, dst, rng.Float64()*2-1)
	}
	for i := 0; i < agents*4; i++ {
		_ = c.SetRating(ids[rng.Intn(agents)], pids[rng.Intn(products)], rng.Float64()*2-1)
	}
	return c
}

func TestDeleteTrustAndRating(t *testing.T) {
	c := NewCommunity(nil)
	c.AddProduct(Product{ID: "p1"})
	must(t, c.SetTrust("a", "b", 0.5))
	must(t, c.SetRating("a", "p1", 0.9))

	c.DeleteTrust("a", "b")
	if _, ok := c.Trust("a", "b"); ok {
		t.Fatal("trust statement survived deletion")
	}
	c.DeleteRating("a", "p1")
	if _, ok := c.Rating("a", "p1"); ok {
		t.Fatal("rating survived deletion")
	}
	// Deleting absent statements (and from unknown agents) is a no-op.
	c.DeleteTrust("a", "b")
	c.DeleteTrust("ghost", "b")
	c.DeleteRating("ghost", "p1")
	if !c.HasAgent("a") || !c.HasAgent("b") {
		t.Fatal("deletion must not unmaterialize agents")
	}
}

// TestCloneIsIsolatedAndOrderPreserving: a clone starts out equal to its
// source, in the same order, and no write to either — through any
// mutator, on an agent or a product — shows through the other. (Records
// are shared until written, so isolation is what is asserted, not
// pointer inequality.)
func TestCloneIsIsolatedAndOrderPreserving(t *testing.T) {
	c := randomCommunity(7, 12, 8)
	c.AddAgent(c.Agents()[0]).Name = "Alice"

	cp := c.Clone()
	if cp.Taxonomy() != c.Taxonomy() {
		t.Fatal("taxonomy must be shared, not copied")
	}
	if len(cp.Agents()) != len(c.Agents()) || len(cp.Products()) != len(c.Products()) {
		t.Fatal("clone lost agents or products")
	}
	for i, id := range c.Agents() {
		if cp.Agents()[i] != id {
			t.Fatal("agent insertion order not preserved")
		}
		orig, cl := c.Agent(id), cp.Agent(id)
		if cl.Name != orig.Name || !sameRow(cl.TrustedPeers(), orig.TrustedPeers()) || !sameRow(cl.RatedProducts(), orig.RatedProducts()) {
			t.Fatalf("agent %s differs in the clone", id)
		}
	}
	for i, pid := range c.Products() {
		if cp.Products()[i] != pid {
			t.Fatal("product insertion order not preserved")
		}
	}

	// Mutating the clone must not leak into the original: every mutator,
	// on records the two still share.
	a0, a1, a2 := c.Agents()[0], c.Agents()[1], c.Agents()[2]
	p0 := c.Products()[0]
	want := deepCopy(c)
	must(t, cp.SetTrust(a0, a1, -0.25))
	for _, st := range c.TrustStatements(c.Agent(a1)) {
		cp.DeleteTrust(a1, st.Dst)
	}
	must(t, cp.SetRating(a2, p0, 0.125))
	for _, rs := range c.RatingStatements(c.Agent(a0)) {
		cp.DeleteRating(a0, rs.Product)
	}
	cp.AddAgent(a1).Name = "Bob"
	cp.AddAgent("http://x/new")
	cp.AddProduct(Product{ID: p0, Title: "second edition"})
	cp.AddProduct(Product{ID: "urn:p:new"})
	sameView(t, "original after the clone was written", c, want, []AgentID{"http://x/new"}, []ProductID{"urn:p:new"})
	if v, _ := cp.Trust(a0, a1); v != -0.25 || cp.Agent(a1).Name != "Bob" || cp.Product(p0).Title != "second edition" {
		t.Fatal("clone lost its own writes")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}

	// And the other way round: the original stays writable.
	wantClone := deepCopy(cp)
	must(t, c.SetTrust(a0, a2, 0.5))
	must(t, c.SetRating(a1, p0, -1))
	c.AddAgent("http://x/late")
	sameView(t, "clone after the original was written", cp, wantClone, []AgentID{"http://x/late"}, nil)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
