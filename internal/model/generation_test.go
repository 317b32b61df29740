package model

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"swrec/internal/taxonomy"
)

// deepCopy is the oracle Clone is measured against: what Clone used to
// be, a community that shares nothing with its source but the taxonomy.
// It is built through the public API of a fresh community, so none of
// its records is ever shared and no write to it takes the copy path.
func deepCopy(c *Community) *Community {
	out := NewCommunity(c.tax)
	for _, p := range c.prodRecs {
		out.AddProduct(Product{ID: p.ID, Title: p.Title, ISBN: p.ISBN, Topics: slices.Clone(p.Topics)})
	}
	for _, a := range c.agentRecs {
		cp := out.AddAgent(a.ID)
		cp.Name = a.Name
		maps.Copy(cp.Trust, a.Trust)
		maps.Copy(cp.Ratings, a.Ratings)
	}
	return out
}

// sameView fails the test unless got and want are the same community
// through every read API: registries, ordinals, statement maps, the
// memoized views, symbol round trips and the compiled adjacency. probe
// names IDs that may exist in some generation of the lineage; whether
// each resolves must agree too.
func sameView(t *testing.T, what string, got, want *Community, probeAgents []AgentID, probeProducts []ProductID) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", what, fmt.Sprintf(format, args...))
	}
	if !slices.Equal(got.Agents(), want.Agents()) {
		fail("agents %v, want %v", got.Agents(), want.Agents())
	}
	if !slices.Equal(got.Products(), want.Products()) {
		fail("products %v, want %v", got.Products(), want.Products())
	}
	if got.NumAgents() != want.NumAgents() || got.NumProducts() != want.NumProducts() {
		fail("sizes %d/%d, want %d/%d", got.NumAgents(), got.NumProducts(), want.NumAgents(), want.NumProducts())
	}
	gs, ws := got.Symbols(), want.Symbols()
	sameProduct := func(g, w *Product) bool {
		return g.ID == w.ID && g.Title == w.Title && g.ISBN == w.ISBN && g.Ord() == w.Ord() && slices.Equal(g.Topics, w.Topics)
	}
	for i, pid := range want.Products() {
		g, w := got.Product(pid), want.Product(pid)
		if g == nil || !sameProduct(g, w) {
			fail("product %s is %+v, want %+v", pid, g, w)
		}
		if ord, ok := gs.ProductOrd(pid); !ok || int(ord) != i || gs.ProductAt(ord) != g {
			fail("product %s: ordinal %d (ok=%v), want %d, or ProductAt disagrees with Product", pid, ord, ok, i)
		}
		if id, ok := gs.ProductID(int32(i)); !ok || id != pid {
			fail("ProductID(%d) = %s, want %s", i, id, pid)
		}
	}
	for i, id := range want.Agents() {
		g, w := got.Agent(id), want.Agent(id)
		if g == nil || g.ID != id || g.Name != w.Name || g.Ord() != w.Ord() {
			fail("agent %s is %+v, want %+v", id, g, w)
		}
		if !maps.Equal(g.Trust, w.Trust) || !maps.Equal(g.Ratings, w.Ratings) {
			fail("agent %s statements: trust %v ratings %v, want %v %v", id, g.Trust, g.Ratings, w.Trust, w.Ratings)
		}
		if !slices.Equal(g.TrustedPeers(), w.TrustedPeers()) {
			fail("agent %s TrustedPeers %v, want %v", id, g.TrustedPeers(), w.TrustedPeers())
		}
		if !slices.Equal(g.RatedProducts(), w.RatedProducts()) {
			fail("agent %s RatedProducts %v, want %v", id, g.RatedProducts(), w.RatedProducts())
		}
		gp, wp := got.PositiveRatings(g), want.PositiveRatings(w)
		if !slices.Equal(gp, wp) {
			fail("agent %s PositiveRatings %v, want %v", id, gp, wp)
		}
		for _, pr := range gp {
			if !sameProduct(gs.ProductAt(pr.Ord), ws.ProductAt(pr.Ord)) {
				fail("agent %s: positive rating resolves to %+v, want %+v", id, gs.ProductAt(pr.Ord), ws.ProductAt(pr.Ord))
			}
		}
		if ord, ok := gs.AgentOrd(id); !ok || int(ord) != i || gs.AgentAt(ord) != g {
			fail("agent %s: ordinal %d (ok=%v), want %d, or AgentAt disagrees with Agent", id, ord, ok, i)
		}
		if back, ok := gs.AgentID(int32(i)); !ok || back != id {
			fail("AgentID(%d) = %s, want %s", i, back, id)
		}
	}
	for _, id := range probeAgents {
		if got.HasAgent(id) != want.HasAgent(id) {
			fail("HasAgent(%s) = %v, want %v", id, got.HasAgent(id), want.HasAgent(id))
		}
	}
	for _, id := range probeProducts {
		if (got.Product(id) != nil) != (want.Product(id) != nil) {
			fail("Product(%s) present = %v, want %v", id, got.Product(id) != nil, want.Product(id) != nil)
		}
	}
	if !slices.Equal(got.TrustEdges(), want.TrustEdges()) {
		fail("trust edges differ")
	}
	ga, wa := got.Adjacency(), want.Adjacency()
	for name, pair := range map[string][2]*CSR{"trust": {ga.Trust(), wa.Trust()}, "ratings": {ga.Ratings(), wa.Ratings()}} {
		g, w := pair[0], pair[1]
		if !slices.Equal(g.Off, w.Off) || !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Val, w.Val) {
			fail("%s CSR differs from the oracle's", name)
		}
	}
	if err := got.Validate(); err != nil {
		fail("Validate: %v", err)
	}
}

// mutator drives one seeded stream of every Community mutator against a
// generation and its oracle in lockstep. Agent and product IDs are drawn
// from small shared pools, so streams on sibling generations collide on
// the same records and on the same not-yet-materialized IDs.
type mutator struct {
	rng    *rand.Rand
	topics []taxonomy.Topic
}

var (
	poolAgents   = idPool[AgentID]("urn:a:", 40)
	poolProducts = idPool[ProductID]("urn:p:", 30)
)

func idPool[K ~string](prefix string, n int) []K {
	out := make([]K, n)
	for i := range out {
		out[i] = K(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

func (m *mutator) agent() AgentID     { return poolAgents[m.rng.Intn(len(poolAgents))] }
func (m *mutator) product() ProductID { return poolProducts[m.rng.Intn(len(poolProducts))] }
func (m *mutator) value() float64     { return float64(m.rng.Intn(41)-20) / 20 }
func (m *mutator) product1() Product {
	p := Product{ID: m.product(), Title: fmt.Sprintf("edition %d", m.rng.Intn(1000))}
	for k := m.rng.Intn(3); k > 0; k-- {
		p.Topics = append(p.Topics, m.topics[m.rng.Intn(len(m.topics))])
	}
	return p
}

// known picks an agent the community has materialized.
func (m *mutator) known(c *Community) AgentID { return c.Agents()[m.rng.Intn(c.NumAgents())] }

// step applies one random mutation to both communities and returns its
// description; it fails the test (without stopping it: writers run off
// the test goroutine) when the two disagree on whether it was valid.
func (m *mutator) step(t *testing.T, c, oracle *Community) string {
	t.Helper()
	both := func(f func(*Community) error) {
		t.Helper()
		if err, oerr := f(c), f(oracle); (err == nil) != (oerr == nil) {
			t.Errorf("mutation result differs: %v on the generation, %v on the oracle", err, oerr)
		}
	}
	switch k := m.rng.Intn(9); k {
	case 0, 1: // trust upsert; either endpoint may be a joiner
		src, dst, v := m.agent(), m.agent(), m.value()
		both(func(c *Community) error { return c.SetTrust(src, dst, v) })
		return fmt.Sprintf("SetTrust(%s,%s,%v)", src, dst, v)
	case 2: // retraction of a statement that exists, when there is one
		src := m.known(c)
		dst := m.agent()
		if peers := c.Agent(src).TrustedPeers(); len(peers) > 0 {
			dst = peers[m.rng.Intn(len(peers))].Dst
		}
		both(func(c *Community) error { c.DeleteTrust(src, dst); return nil })
		return fmt.Sprintf("DeleteTrust(%s,%s)", src, dst)
	case 3, 4: // rating upsert; the product may be uncataloged (an error on both)
		a, p, v := m.agent(), m.product(), m.value()
		both(func(c *Community) error { return c.SetRating(a, p, v) })
		return fmt.Sprintf("SetRating(%s,%s,%v)", a, p, v)
	case 5:
		a := m.known(c)
		p := m.product()
		if rated := c.Agent(a).RatedProducts(); len(rated) > 0 {
			p = rated[m.rng.Intn(len(rated))].Product
		}
		both(func(c *Community) error { c.DeleteRating(a, p); return nil })
		return fmt.Sprintf("DeleteRating(%s,%s)", a, p)
	case 6: // join or re-register, and write the name through the returned record
		a, name := m.agent(), fmt.Sprintf("name %d", m.rng.Intn(1000))
		both(func(c *Community) error { c.AddAgent(a).Name = name; return nil })
		return fmt.Sprintf("AddAgent(%s).Name=%q", a, name)
	default: // a new catalog entry, or a metadata refresh of an existing one
		p := m.product1()
		both(func(c *Community) error {
			cp := p
			cp.Topics = slices.Clone(p.Topics)
			c.AddProduct(cp)
			return nil
		})
		return fmt.Sprintf("AddProduct(%+v)", p)
	}
}

// seedGeneration builds generation 0: half of each pool, with statements.
func seedGeneration(m *mutator, tax *taxonomy.Taxonomy) *Community {
	c := NewCommunity(tax)
	for _, pid := range poolProducts[:len(poolProducts)/2] {
		c.AddProduct(Product{ID: pid, Topics: []taxonomy.Topic{m.topics[m.rng.Intn(len(m.topics))]}})
	}
	for _, id := range poolAgents[:len(poolAgents)/2] {
		c.AddAgent(id)
	}
	for i := 0; i < 60; i++ {
		_ = c.SetTrust(m.known(c), m.known(c), m.value())
		_ = c.SetRating(m.known(c), c.Products()[m.rng.Intn(c.NumProducts())], m.value())
	}
	return c
}

func testTaxonomy(t *testing.T) (*taxonomy.Taxonomy, []taxonomy.Topic) {
	t.Helper()
	tax := taxonomy.New("Root")
	topics := make([]taxonomy.Topic, 6)
	for i := range topics {
		d, err := tax.Add(taxonomy.Root, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		topics[i] = d
	}
	return tax, topics
}

// TestGenerationsMatchDeepCopyOracle drives seeded mutation streams down
// a chain of copy-on-write generations, with two sibling clones of every
// parent written in alternation. After every step the written generation
// must equal its deep-copied oracle, and every earlier generation — each
// of which shares records with the one being written — must still equal
// what it was when it was cloned.
func TestGenerationsMatchDeepCopyOracle(t *testing.T) {
	const (
		generations = 6
		steps       = 40
	)
	for seed := int64(1); seed <= 4; seed++ {
		tax, topics := testTaxonomy(t)
		m := &mutator{rng: rand.New(rand.NewSource(seed)), topics: topics}

		// frozen[i] pairs a generation nobody writes any more with a deep
		// copy taken when it stopped being written.
		type pair struct{ gen, oracle *Community }
		var frozen []pair
		checkFrozen := func(after string) {
			t.Helper()
			for i, f := range frozen {
				sameView(t, fmt.Sprintf("seed %d: frozen generation %d after %s", seed, i, after), f.gen, f.oracle, poolAgents, poolProducts)
			}
		}

		cur := seedGeneration(m, tax)
		oracle := deepCopy(cur)
		sameView(t, "seed generation vs its deep copy", cur, oracle, poolAgents, poolProducts)
		for g := 1; g <= generations; g++ {
			frozen = append(frozen, pair{cur, oracle})
			// Two siblings of one parent, each with its own oracle.
			a, b := pair{cur.Clone(), deepCopy(oracle)}, pair{cur.Clone(), deepCopy(oracle)}
			checkFrozen(fmt.Sprintf("cloning generation %d twice", g-1))
			for s := 0; s < steps; s++ {
				w := a
				if s%2 == 1 {
					w = b
				}
				op := m.step(t, w.gen, w.oracle)
				where := fmt.Sprintf("seed %d generation %d step %d %s", seed, g, s, op)
				sameView(t, where, w.gen, w.oracle, poolAgents, poolProducts)
				checkFrozen(where)
			}
			sameView(t, "sibling a", a.gen, a.oracle, poolAgents, poolProducts)
			sameView(t, "sibling b", b.gen, b.oracle, poolAgents, poolProducts)
			// The chain continues from one sibling; the other stays around
			// as a frozen generation with a shared parent.
			frozen = append(frozen, b)
			cur, oracle = a.gen, a.oracle
		}
	}
}

// TestSourceStaysWritableAfterClone: Clone leaves the source an
// independent community too — it gave up its records, so its own later
// writes copy first and never show through the clone.
func TestSourceStaysWritableAfterClone(t *testing.T) {
	tax, topics := testTaxonomy(t)
	m := &mutator{rng: rand.New(rand.NewSource(9)), topics: topics}
	src := seedGeneration(m, tax)
	srcOracle := deepCopy(src)
	clone := src.Clone()
	cloneOracle := deepCopy(srcOracle)
	for s := 0; s < 120; s++ {
		op := m.step(t, src, srcOracle)
		sameView(t, "source after "+op, src, srcOracle, poolAgents, poolProducts)
		sameView(t, "clone after the source's "+op, clone, cloneOracle, poolAgents, poolProducts)
	}
}

// TestSharedMemosSurviveCatalogRefresh pins the memo rule: a memo on a
// shared record may depend only on the record and on ID↔ordinal
// bindings. The positives memo is built by the parent, then the child
// refreshes the product's metadata; each generation must resolve the
// same memoized list to its own catalog entry.
func TestSharedMemosSurviveCatalogRefresh(t *testing.T) {
	tax, topics := testTaxonomy(t)
	parent := NewCommunity(tax)
	parent.AddProduct(Product{ID: "p", Title: "first", Topics: topics[:1]})
	must(t, parent.SetRating("a", "p", 0.9))
	pos := parent.PositiveRatings(parent.Agent("a")) // memoized on the record

	child := parent.Clone()
	child.AddProduct(Product{ID: "p", Title: "second", Topics: topics[1:3]})
	if child.Agent("a") != parent.Agent("a") {
		t.Fatal("a catalog refresh copied an agent record")
	}
	cpos := child.PositiveRatings(child.Agent("a"))
	if &cpos[0] != &pos[0] {
		t.Fatal("the child rebuilt a memo it shares with its parent")
	}
	if p := child.Symbols().ProductAt(cpos[0].Ord); p.Title != "second" || !slices.Equal(p.Topics, topics[1:3]) {
		t.Fatalf("child resolves its positive rating to %+v, want the refreshed entry", p)
	}
	if p := parent.Symbols().ProductAt(pos[0].Ord); p.Title != "first" || !slices.Equal(p.Topics, topics[:1]) {
		t.Fatalf("parent resolves its positive rating to %+v, want the entry it was built on", p)
	}

	// A write to the untouched relation keeps the other relation's memos;
	// a write to the relation drops them, in the writing generation only.
	must(t, child.SetTrust("a", "b", 0.5))
	if got := child.PositiveRatings(child.Agent("a")); &got[0] != &pos[0] {
		t.Fatal("a trust write dropped the ratings memo")
	}
	must(t, child.SetRating("a", "p", 0.4))
	if got := child.PositiveRatings(child.Agent("a")); got[0].Value != 0.4 {
		t.Fatalf("rating write not visible in the child's positives: %v", got)
	}
	if got := parent.PositiveRatings(parent.Agent("a")); &got[0] != &pos[0] || got[0].Value != 0.9 {
		t.Fatalf("the child's rating write reached the parent's positives: %v", got)
	}
}

// TestCloneCopiesTablesOnly pins the cost model: a clone allocates its
// community, its stamp, the source's new stamp and the two record
// tables — nothing per record.
func TestCloneCopiesTablesOnly(t *testing.T) {
	c := randomCommunity(3, 400, 200)
	if n := testing.AllocsPerRun(20, func() { c.Clone() }); n > 6 {
		t.Fatalf("Clone of 400 agents and 200 products made %v allocations, want at most 6", n)
	}
	clone := c.Clone()
	for _, id := range c.Agents() {
		if clone.Agent(id) != c.Agent(id) {
			t.Fatalf("unwritten agent %s was copied", id)
		}
	}
}

// TestReadersOfParentRaceFreeWithChildWrites is the -race half of the
// ownership rule: reader goroutines hammer a published parent — building
// memos on the shared records, compiling adjacencies, resolving symbols,
// cloning it — while two sibling children are written through every
// mutator. Afterwards the parent still equals its deep copy and each
// child its oracle.
func TestReadersOfParentRaceFreeWithChildWrites(t *testing.T) {
	tax, topics := testTaxonomy(t)
	m := &mutator{rng: rand.New(rand.NewSource(5)), topics: topics}
	parent := seedGeneration(m, tax)
	parentOracle := deepCopy(parent)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			sym := parent.Symbols()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range parent.Agents() {
					a := parent.Agent(id)
					a.TrustedPeers()
					a.RatedProducts()
					for _, pr := range parent.PositiveRatings(a) {
						_ = sym.ProductAt(pr.Ord).Topics
					}
					if ord, ok := sym.AgentOrd(id); !ok || sym.AgentAt(ord) != a {
						t.Errorf("reader: symbol table lost agent %s", id)
						return
					}
				}
				adj := parent.Adjacency()
				adj.Trust()
				adj.Ratings()
				parent.TrustEdges()
				if i%8 == r {
					parent.Clone() // a further sibling, dropped
				}
			}
		}(r)
	}

	type pair struct{ gen, oracle *Community }
	children := []pair{{parent.Clone(), deepCopy(parentOracle)}, {parent.Clone(), deepCopy(parentOracle)}}
	var writers sync.WaitGroup
	for i, ch := range children {
		writers.Add(1)
		go func(i int, ch pair) {
			defer writers.Done()
			wm := &mutator{rng: rand.New(rand.NewSource(int64(100 + i))), topics: topics}
			for s := 0; s < 400; s++ {
				wm.step(t, ch.gen, ch.oracle)
			}
		}(i, ch)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	sameView(t, "parent after its children were written", parent, parentOracle, poolAgents, poolProducts)
	for i, ch := range children {
		sameView(t, fmt.Sprintf("child %d", i), ch.gen, ch.oracle, poolAgents, poolProducts)
	}
}
