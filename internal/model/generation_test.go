package model

import (
	"fmt"
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
		out.AddAgent(a.ID).Name = a.Name
	}
	for _, a := range c.agentRecs {
		for _, st := range c.TrustStatements(a) {
			if err := out.SetTrust(st.Src, st.Dst, st.Value); err != nil {
				panic(err)
			}
		}
		for _, rs := range c.RatingStatements(a) {
			if err := out.SetRating(rs.Agent, rs.Product, rs.Value); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// sameView fails the test unless got and want are the same community
// through every read API: registries, ordinals, statement rows, symbol
// round trips and the adjacency. probe
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
		if !sameRow(g.TrustedPeers(), w.TrustedPeers()) || !slices.Equal(got.TrustStatements(g), want.TrustStatements(w)) {
			fail("agent %s TrustedPeers %v, want %v", id, got.TrustStatements(g), want.TrustStatements(w))
		}
		if !sameRow(g.RatedProducts(), w.RatedProducts()) || !slices.Equal(got.RatingStatements(g), want.RatingStatements(w)) {
			fail("agent %s RatedProducts %v, want %v", id, got.RatingStatements(g), want.RatingStatements(w))
		}
		gp, wp := g.PositiveRatings(), w.PositiveRatings()
		if !sameRow(gp, wp) {
			fail("agent %s PositiveRatings %v, want %v", id, gp, wp)
		}
		for _, e := range gp {
			if !sameProduct(gs.ProductAt(e.Ord), ws.ProductAt(e.Ord)) {
				fail("agent %s: positive rating resolves to %+v, want %+v", id, gs.ProductAt(e.Ord), ws.ProductAt(e.Ord))
			}
		}
		ga := got.Adjacency()
		if !sameRow(ga.Trust(g.Ord()), w.TrustedPeers()) || !sameRow(ga.Ratings(g.Ord()), w.RatedProducts()) {
			fail("agent %s: the adjacency's rows differ from the oracle's", id)
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

// op is one mutation: what step applies to a generation and its oracle,
// and to the map reference in reference_test.go.
type op struct {
	kind     int // see next
	src, dst AgentID
	product  ProductID
	value    float64
	name     string
	entry    Product
}

// next draws one random mutation against the state of c. Retractions
// pick a statement that exists when there is one.
func (m *mutator) next(c *Community) op {
	switch k := m.rng.Intn(9); k {
	case 0, 1: // trust upsert; either endpoint may be a joiner
		return op{kind: 0, src: m.agent(), dst: m.agent(), value: m.value()}
	case 2:
		o := op{kind: 2, src: m.known(c), dst: m.agent()}
		if peers := c.Agent(o.src).TrustedPeers(); len(peers) > 0 {
			o.dst = c.agentIDs[peers[m.rng.Intn(len(peers))].Ord]
		}
		return o
	case 3, 4: // rating upsert; the product may be uncataloged (an error on both)
		return op{kind: 3, src: m.agent(), product: m.product(), value: m.value()}
	case 5:
		o := op{kind: 5, src: m.known(c), product: m.product()}
		if rated := c.Agent(o.src).RatedProducts(); len(rated) > 0 {
			o.product = c.prodIDs[rated[m.rng.Intn(len(rated))].Ord]
		}
		return o
	case 6: // join or re-register, and write the name through the returned record
		return op{kind: 6, src: m.agent(), name: fmt.Sprintf("name %d", m.rng.Intn(1000))}
	default: // a new catalog entry, or a metadata refresh of an existing one
		return op{kind: 7, entry: m.product1()}
	}
}

// apply performs o on c.
func (o op) apply(c *Community) error {
	switch o.kind {
	case 0:
		return c.SetTrust(o.src, o.dst, o.value)
	case 2:
		c.DeleteTrust(o.src, o.dst)
	case 3:
		return c.SetRating(o.src, o.product, o.value)
	case 5:
		c.DeleteRating(o.src, o.product)
	case 6:
		c.AddAgent(o.src).Name = o.name
	default:
		p := o.entry
		p.Topics = slices.Clone(p.Topics)
		c.AddProduct(p)
	}
	return nil
}

func (o op) String() string {
	switch o.kind {
	case 0:
		return fmt.Sprintf("SetTrust(%s,%s,%v)", o.src, o.dst, o.value)
	case 2:
		return fmt.Sprintf("DeleteTrust(%s,%s)", o.src, o.dst)
	case 3:
		return fmt.Sprintf("SetRating(%s,%s,%v)", o.src, o.product, o.value)
	case 5:
		return fmt.Sprintf("DeleteRating(%s,%s)", o.src, o.product)
	case 6:
		return fmt.Sprintf("AddAgent(%s).Name=%q", o.src, o.name)
	default:
		return fmt.Sprintf("AddProduct(%+v)", o.entry)
	}
}

// step applies one random mutation to both communities and returns its
// description; it fails the test (without stopping it: writers run off
// the test goroutine) when the two disagree on whether it was valid.
func (m *mutator) step(t *testing.T, c, oracle *Community) string {
	t.Helper()
	o := m.next(c)
	if err, oerr := o.apply(c), o.apply(oracle); (err == nil) != (oerr == nil) {
		t.Errorf("mutation result differs: %v on the generation, %v on the oracle", err, oerr)
	}
	return o.String()
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

// TestSharedRowsSurviveCatalogRefresh pins what makes a row shareable:
// it names products by ordinal, and ordinals are bound for the lineage.
// The child refreshes a rated product's metadata; each generation must
// resolve the one shared row to its own catalog entry.
func TestSharedRowsSurviveCatalogRefresh(t *testing.T) {
	tax, topics := testTaxonomy(t)
	parent := NewCommunity(tax)
	parent.AddProduct(Product{ID: "p", Title: "first", Topics: topics[:1]})
	must(t, parent.SetRating("a", "p", 0.9))
	pos := parent.Agent("a").PositiveRatings()

	child := parent.Clone()
	child.AddProduct(Product{ID: "p", Title: "second", Topics: topics[1:3]})
	if child.Agent("a") != parent.Agent("a") {
		t.Fatal("a catalog refresh copied an agent record")
	}
	cpos := child.Agent("a").PositiveRatings()
	if &cpos[0] != &pos[0] {
		t.Fatal("the child copied a row it shares with its parent")
	}
	if p := child.Symbols().ProductAt(cpos[0].Ord); p.Title != "second" || !slices.Equal(p.Topics, topics[1:3]) {
		t.Fatalf("child resolves its positive rating to %+v, want the refreshed entry", p)
	}
	if p := parent.Symbols().ProductAt(pos[0].Ord); p.Title != "first" || !slices.Equal(p.Topics, topics[:1]) {
		t.Fatalf("parent resolves its positive rating to %+v, want the entry it was built on", p)
	}

	// A write to one relation copies the record but keeps sharing the
	// other relation's row; a write to the relation copies its row, in
	// the writing generation only.
	must(t, child.SetTrust("a", "b", 0.5))
	if got := child.Agent("a").PositiveRatings(); &got[0] != &pos[0] {
		t.Fatal("a trust write copied the ratings row")
	}
	must(t, child.SetRating("a", "p", 0.4))
	if got := child.Agent("a").PositiveRatings(); got[0].Val != 0.4 || &got[0] == &pos[0] {
		t.Fatalf("rating write not in a row of the child's own: %v", got)
	}
	if got := parent.Agent("a").PositiveRatings(); &got[0] != &pos[0] || got[0].Val != 0.9 {
		t.Fatalf("the child's rating write reached the parent's row: %v", got)
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
// ownership rule: reader goroutines hammer a published parent — reading
// the shared records' rows, through the adjacency too, resolving
// symbols, cloning it — while two sibling children are written through every
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
					parent.TrustStatements(a)
					parent.RatingStatements(a)
					for _, e := range a.PositiveRatings() {
						_ = sym.ProductAt(e.Ord).Topics
					}
					if ord, ok := sym.AgentOrd(id); !ok || sym.AgentAt(ord) != a {
						t.Errorf("reader: symbol table lost agent %s", id)
						return
					}
				}
				adj := parent.Adjacency()
				for o := int32(0); int(o) < adj.NumAgents(); o++ {
					adj.Trust(o)
					adj.Ratings(o)
				}
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
