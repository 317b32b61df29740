// Package model implements the paper's information model (§3.1):
//
//   - a set of agents A = {a1..an}, identified by globally unique URIs,
//   - a set of products B = {b1..bm}, identified by catalog identifiers
//     such as ISBNs,
//   - partial trust functions T = {t1..tn}, ti: A → [-1,+1]⊥,
//   - partial rating functions R = {r1..rn}, ri: B → [-1,+1]⊥,
//   - a descriptor assignment function f: B → 2^D into a taxonomy C
//     (package taxonomy).
//
// Partiality is modeled by map absence: a missing key is ⊥. Trust values
// around zero indicate *absence* of trust, which the paper is careful to
// distinguish from explicit distrust (negative values, Marsh [8]).
//
// Agent and rating data is conceptually distributed across machine-readable
// homepages on the Semantic Web; Community is the local, materialized view
// an agent assembles (e.g. by crawling, package crawler) before it runs all
// recommendation computations locally (§2). The taxonomy and the product
// catalog are the globally accessible part of the model.
package model

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"swrec/internal/taxonomy"
)

// AgentID is the globally unique identifier of an agent, usually the URI of
// its machine-readable homepage (e.g. "http://example.org/people/alice").
type AgentID string

// ProductID is the globally unique identifier of a product. For books the
// paper uses ISBNs (e.g. "urn:isbn:0521386322"); identifiers from a catalog
// agreed upon, such as Amazon ASINs, work equally.
type ProductID string

// Rating bounds: both trust and product ratings live in [-1, +1] (§3.1).
const (
	MinValue = -1.0
	MaxValue = +1.0
)

// InRange reports whether v is a statable trust or rating value. Written
// as a conjunction so that NaN — which fails every comparison, and so
// passes "v < Min || v > Max" — is outside the range.
func InRange(v float64) bool { return v >= MinValue && v <= MaxValue }

var (
	// ErrValueRange is returned when a trust or rating value lies outside
	// [-1, +1].
	ErrValueRange = errors.New("model: value outside [-1,+1]")
	// ErrUnknownAgent is returned when an agent is not part of the
	// community view.
	ErrUnknownAgent = errors.New("model: unknown agent")
	// ErrUnknownProduct is returned when a product is not in the catalog.
	ErrUnknownProduct = errors.New("model: unknown product")
	// ErrSelfTrust is returned when an agent states trust in itself.
	ErrSelfTrust = errors.New("model: agent cannot trust itself")
)

// TrustStatement is one edge of the trust network: src accords value to dst.
type TrustStatement struct {
	Src, Dst AgentID
	Value    float64
}

// RatingStatement is one product rating: agent rated product with value.
type RatingStatement struct {
	Agent   AgentID
	Product ProductID
	Value   float64
}

// Product is one catalog entry of set B with its topic descriptors f(b).
type Product struct {
	ID     ProductID
	Title  string
	ISBN   string // optional; set for books
	Topics []taxonomy.Topic
	// ord is the product's dense per-community ordinal in [0,
	// NumProducts), assigned at first AddProduct (products are never
	// deleted). Flat request-scoped accumulators index by it instead of
	// hashing product IDs.
	ord int32
	// gen is the generation that may write this record (see Community).
	gen *generation
}

// Ord returns the product's dense per-community ordinal (see ord).
func (p *Product) Ord() int32 { return p.ord }

// Agent is the materialized state of one agent: its partial trust function
// t_i (map absence = ⊥) and its partial rating function r_i.
//
// A record may be shared by several generations of a community (see
// Community.Clone), so a record obtained from Community.Agent is
// read-only: write through the Community setters, or through the record
// AddAgent returns, which the community owns.
type Agent struct {
	ID      AgentID
	Name    string // optional display name (foaf:name)
	Trust   map[AgentID]float64
	Ratings map[ProductID]float64
	// peersMemo, ratingsMemo and posMemo cache the sorted statement views
	// (TrustedPeers, RatedProducts, PositiveRatings), which the trust
	// metrics and profile generation walk once per agent per request.
	// Atomic so concurrent readers of an immutable snapshot may race on
	// first build: every build produces the identical sorted slice, so
	// last-store-wins is benign. Mutators going through the Community
	// setters invalidate; code that writes the maps directly must call
	// MarkDirty.
	//
	// The memo rule: every generation sharing the record reads these, so a
	// memo must be a pure function of the record itself and of catalog
	// facts that never change within a lineage (a product's ID↔ordinal
	// binding). That is why positives name their product by ordinal and
	// no memo holds a *Agent or *Product: those belong to one generation.
	peersMemo   atomic.Pointer[[]TrustStatement]
	ratingsMemo atomic.Pointer[[]RatingStatement]
	posMemo     atomic.Pointer[[]PositiveRating]
	// ord is the agent's dense per-community ordinal in [0, NumAgents),
	// assigned at materialization (agents are never deleted). Graph
	// walks index flat tables by it instead of hashing agent IDs.
	ord int32
	// gen is the generation that may write this record (see Community).
	gen *generation
}

// Ord returns the agent's dense per-community ordinal (see ord).
func (a *Agent) Ord() int32 { return a.ord }

// PositiveRating is one positively rated, cataloged product of an agent
// — the unit of profile generation (§3.3) — named by product ordinal, so
// the hot path pays no catalog hash and the memoized list is valid in
// every generation sharing the agent's record (resolve the record with
// Symbols.ProductAt against the generation being read).
type PositiveRating struct {
	Ord   int32 // product ordinal
	Value float64
}

// MarkDirty drops the agent's cached derived views. The Community
// setters call it automatically; callers mutating Trust or Ratings maps
// directly (evaluation harnesses, on a record their community owns) must
// call it themselves afterwards.
func (a *Agent) MarkDirty() {
	a.peersMemo.Store(nil)
	a.ratingsMemo.Store(nil)
	a.posMemo.Store(nil)
}

// newAgent allocates an empty agent record.
func newAgent(id AgentID) *Agent {
	return &Agent{
		ID:      id,
		Trust:   make(map[AgentID]float64),
		Ratings: make(map[ProductID]float64),
	}
}

// TrustedPeers returns the peers a directly trusts or distrusts, sorted by
// descending value (ties broken by ID for determinism). The slice is
// memoized until the agent's trust function changes and must not be
// modified by the caller.
func (a *Agent) TrustedPeers() []TrustStatement {
	if m := a.peersMemo.Load(); m != nil {
		return *m
	}
	out := make([]TrustStatement, 0, len(a.Trust))
	for dst, v := range a.Trust {
		out = append(out, TrustStatement{Src: a.ID, Dst: dst, Value: v})
	}
	slices.SortFunc(out, compareTrust)
	a.peersMemo.Store(&out)
	return out
}

// compareTrust is the TrustedPeers order: descending value, ties by
// target ID.
func compareTrust(x, y TrustStatement) int {
	switch {
	case x.Value > y.Value:
		return -1
	case x.Value < y.Value:
		return 1
	case x.Dst < y.Dst:
		return -1
	case x.Dst > y.Dst:
		return 1
	default:
		return 0
	}
}

// RatedProducts returns the agent's ratings sorted by descending value
// (ties broken by product ID). Positive ratings form a prefix, so
// "appreciated products" scans stop at the first non-positive value. The
// slice is memoized until the agent's rating function changes and must
// not be modified by the caller.
func (a *Agent) RatedProducts() []RatingStatement {
	if m := a.ratingsMemo.Load(); m != nil {
		return *m
	}
	out := make([]RatingStatement, 0, len(a.Ratings))
	for p, v := range a.Ratings {
		out = append(out, RatingStatement{Agent: a.ID, Product: p, Value: v})
	}
	slices.SortFunc(out, compareRating)
	a.ratingsMemo.Store(&out)
	return out
}

// compareRating is the RatedProducts order: descending value, ties by
// product ID.
func compareRating(x, y RatingStatement) int {
	switch {
	case x.Value > y.Value:
		return -1
	case x.Value < y.Value:
		return 1
	case x.Product < y.Product:
		return -1
	case x.Product > y.Product:
		return 1
	default:
		return 0
	}
}

// PositiveRatings returns agent a's positive ratings of cataloged
// products, in RatedProducts order (descending value, ties by product
// ID), each naming its product by ordinal. Ratings referencing products
// missing from the catalog are skipped. The slice is memoized on the
// agent until its ratings change and must not be modified.
func (c *Community) PositiveRatings(a *Agent) []PositiveRating {
	if m := a.posMemo.Load(); m != nil {
		return *m
	}
	out := make([]PositiveRating, 0, len(a.Ratings))
	for _, rs := range a.RatedProducts() {
		if rs.Value <= 0 {
			break // positives form a prefix
		}
		if ord, ok := c.prodIdx.ord[rs.Product]; ok {
			out = append(out, PositiveRating{Ord: ord, Value: rs.Value})
		}
	}
	a.posMemo.Store(&out)
	return out
}

// generation is a community's ownership stamp: a record whose gen equals
// its community's may be written in place; any other is shared with
// another generation and is copied before its first write. Non-zero size
// so every allocation is a distinct pointer.
type generation struct{ _ byte }

// ordIndex is an ID→ordinal map several generations may share. Ordinals
// are append-only, so a generation that only rewrites existing records
// never touches it; one that appends an agent or product inserts in
// place when it owns the index and copies it first otherwise.
type ordIndex[K comparable] struct {
	owner *generation
	ord   map[K]int32
}

// writable returns the index g may insert into: ix itself when g owns
// it, a copy stamped with g otherwise.
func (ix *ordIndex[K]) writable(g *generation) *ordIndex[K] {
	if ix.owner == g {
		return ix
	}
	return &ordIndex[K]{owner: g, ord: maps.Clone(ix.ord)}
}

// Community is a local, materialized view of the distributed model: the
// agents known so far, the global product catalog, and the shared taxonomy.
// It is the substrate all recommendation computation operates on.
//
// A Community is one generation of a lineage: Clone derives the next one,
// which shares every agent and product record with its source until it
// writes to it. Each record carries the stamp of the generation that
// owns it; every mutator first takes ownership of the record it is about
// to write (copying a shared one into this generation's record table),
// so a write is never visible through any other generation.
//
// A Community is not safe for concurrent mutation. Reads may proceed
// concurrently once loading is finished — including reads of a
// generation whose clones are being written.
type Community struct {
	gen atomic.Pointer[generation]

	agentIdx *ordIndex[AgentID]
	agentIDs []AgentID // insertion order, for deterministic iteration
	// agentRecs[ord] is this generation's record of the agent with that
	// ordinal — the dense table Symbols.AgentAt and the compiled
	// adjacency index, and the one place a record is looked up.
	agentRecs []*Agent
	prodIdx   *ordIndex[ProductID]
	prodIDs   []ProductID
	prodRecs  []*Product // prodRecs[ord], as agentRecs
	tax       *taxonomy.Taxonomy
}

// NewCommunity creates an empty community over the given taxonomy. The
// taxonomy may be nil for pure trust-network use; profile generation
// requires one.
func NewCommunity(tax *taxonomy.Taxonomy) *Community { return NewCommunitySized(tax, 0, 0) }

// NewCommunitySized is NewCommunity with the ID indexes and record tables
// sized for the given numbers of agents and products, for a loader that
// knows them up front: nothing rehashes or regrows while it fills them.
func NewCommunitySized(tax *taxonomy.Taxonomy, agents, products int) *Community {
	g := new(generation)
	c := &Community{
		agentIdx:  &ordIndex[AgentID]{owner: g, ord: make(map[AgentID]int32, agents)},
		agentIDs:  make([]AgentID, 0, agents),
		agentRecs: make([]*Agent, 0, agents),
		prodIdx:   &ordIndex[ProductID]{owner: g, ord: make(map[ProductID]int32, products)},
		prodIDs:   make([]ProductID, 0, products),
		prodRecs:  make([]*Product, 0, products),
		tax:       tax,
	}
	c.gen.Store(g)
	return c
}

// Taxonomy returns the community's shared taxonomy C (may be nil).
func (c *Community) Taxonomy() *taxonomy.Taxonomy { return c.tax }

// NumAgents returns |A| as materialized locally.
func (c *Community) NumAgents() int { return len(c.agentRecs) }

// NumProducts returns |B|.
func (c *Community) NumProducts() int { return len(c.prodRecs) }

// ensureAgent returns id's ordinal, registering an empty record first if
// the agent is not yet materialized.
func (c *Community) ensureAgent(id AgentID) int32 {
	if ord, ok := c.agentIdx.ord[id]; ok {
		return ord
	}
	g := c.gen.Load()
	a := newAgent(id)
	a.ord = int32(len(c.agentRecs))
	a.gen = g
	c.agentIdx = c.agentIdx.writable(g)
	c.agentIdx.ord[id] = a.ord
	c.agentIDs = append(c.agentIDs, id)
	c.agentRecs = append(c.agentRecs, a)
	return a.ord
}

// ownAgent returns the record with the given ordinal after making it
// this generation's own: a record shared with another generation is
// copied — both statement maps, and the memoized views, which the caller
// invalidates for the relation it goes on to write — and the copy takes
// its place in the record table.
func (c *Community) ownAgent(ord int32) *Agent {
	a := c.agentRecs[ord]
	g := c.gen.Load()
	if a.gen == g {
		return a
	}
	cp := &Agent{
		ID:      a.ID,
		Name:    a.Name,
		Trust:   maps.Clone(a.Trust),
		Ratings: maps.Clone(a.Ratings),
		ord:     ord,
		gen:     g,
	}
	cp.peersMemo.Store(a.peersMemo.Load())
	cp.ratingsMemo.Store(a.ratingsMemo.Load())
	cp.posMemo.Store(a.posMemo.Load())
	c.agentRecs[ord] = cp
	return cp
}

// AddAgent registers an agent if not yet present and returns its record,
// owned by this generation: the caller may write it (its Name, or its
// maps followed by MarkDirty).
func (c *Community) AddAgent(id AgentID) *Agent { return c.ownAgent(c.ensureAgent(id)) }

// Agent returns the record of id, or nil if unknown. The record may be
// shared with other generations and must not be written.
func (c *Community) Agent(id AgentID) *Agent {
	if ord, ok := c.agentIdx.ord[id]; ok {
		return c.agentRecs[ord]
	}
	return nil
}

// HasAgent reports whether id has been materialized.
func (c *Community) HasAgent(id AgentID) bool { _, ok := c.agentIdx.ord[id]; return ok }

// Agents returns all agent IDs in insertion order. The slice must not be
// modified.
func (c *Community) Agents() []AgentID { return c.agentIDs }

// AddProduct registers a catalog entry. Re-adding an existing ID replaces
// its metadata (catalogs get refreshed by crawls) and keeps its ordinal:
// in place when this generation owns the record, in a fresh record
// otherwise, so older generations keep the entry they were built on.
func (c *Community) AddProduct(p Product) *Product {
	g := c.gen.Load()
	if ord, ok := c.prodIdx.ord[p.ID]; ok {
		rec := c.prodRecs[ord]
		if rec.gen != g {
			rec = new(Product)
			c.prodRecs[ord] = rec
		}
		*rec = p
		rec.ord, rec.gen = ord, g
		return rec
	}
	cp := p
	cp.ord, cp.gen = int32(len(c.prodRecs)), g
	c.prodIdx = c.prodIdx.writable(g)
	c.prodIdx.ord[p.ID] = cp.ord
	c.prodIDs = append(c.prodIDs, p.ID)
	c.prodRecs = append(c.prodRecs, &cp)
	return &cp
}

// Product returns the catalog entry for id, or nil if unknown. The record
// may be shared with other generations and must not be written.
func (c *Community) Product(id ProductID) *Product {
	if ord, ok := c.prodIdx.ord[id]; ok {
		return c.prodRecs[ord]
	}
	return nil
}

// Products returns all product IDs in insertion order. The slice must not
// be modified.
func (c *Community) Products() []ProductID { return c.prodIDs }

// SetTrust records t_src(dst) = v. Both endpoints are materialized if
// needed (the Semantic Web has no referential integrity: statements about
// yet-unseen agents are normal).
func (c *Community) SetTrust(src, dst AgentID, v float64) error {
	if src == dst {
		return fmt.Errorf("%w: %s", ErrSelfTrust, src)
	}
	if !InRange(v) {
		return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, src, dst, v)
	}
	c.ensureAgent(dst)
	a := c.AddAgent(src)
	a.Trust[dst] = v
	a.peersMemo.Store(nil)
	return nil
}

// Trust returns t_src(dst); ok is false when the value is ⊥ (absent).
func (c *Community) Trust(src, dst AgentID) (v float64, ok bool) {
	a := c.Agent(src)
	if a == nil {
		return 0, false
	}
	v, ok = a.Trust[dst]
	return v, ok
}

// SetRating records r_agent(product) = v. The product must already be in
// the catalog: ratings refer to globally known identifiers (§3.1).
func (c *Community) SetRating(agent AgentID, product ProductID, v float64) error {
	if !InRange(v) {
		return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, agent, product, v)
	}
	if _, ok := c.prodIdx.ord[product]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProduct, product)
	}
	a := c.AddAgent(agent)
	a.Ratings[product] = v
	a.ratingsMemo.Store(nil)
	a.posMemo.Store(nil)
	return nil
}

// Rating returns r_agent(product); ok is false when the value is ⊥.
func (c *Community) Rating(agent AgentID, product ProductID) (v float64, ok bool) {
	a := c.Agent(agent)
	if a == nil {
		return 0, false
	}
	v, ok = a.Ratings[product]
	return v, ok
}

// DeleteTrust retracts t_src(dst), restoring ⊥. Retracting an absent
// statement is a no-op: retraction messages on the Semantic Web may
// arrive for statements never materialized locally.
func (c *Community) DeleteTrust(src, dst AgentID) {
	ord, ok := c.agentIdx.ord[src]
	if !ok {
		return
	}
	if _, stated := c.agentRecs[ord].Trust[dst]; stated {
		a := c.ownAgent(ord)
		delete(a.Trust, dst)
		a.peersMemo.Store(nil)
	}
}

// DeleteRating retracts r_agent(product), restoring ⊥. Retracting an
// absent rating is a no-op.
func (c *Community) DeleteRating(agent AgentID, product ProductID) {
	ord, ok := c.agentIdx.ord[agent]
	if !ok {
		return
	}
	if _, rated := c.agentRecs[ord].Ratings[product]; rated {
		a := c.ownAgent(ord)
		delete(a.Ratings, product)
		a.ratingsMemo.Store(nil)
		a.posMemo.Store(nil)
	}
}

// Clone returns the next generation of the community: an independent
// view — writes to either side are never visible through the other, and
// any number of clones of one source may coexist — that costs O(1) per
// record to derive. The clone shares every agent and product record, the
// ID→ordinal indexes and the taxonomy with its source, and gets its own
// copy of the two ordinal-indexed record tables only; a record is copied
// when a generation first writes to it, an index when a generation first
// appends to it. Insertion order and ordinals are preserved, so a clone
// is byte-equivalent to the original under deterministic serialization.
// Clone is how the ingestion path derives a mutable working copy from a
// snapshot that is concurrently being served, at a cost proportional to
// the batch it goes on to apply.
//
// The source gives up ownership as well (it takes a fresh stamp), so it
// too copies before its next write; concurrent readers of the source are
// unaffected, and concurrent Clone calls on one source are safe.
func (c *Community) Clone() *Community {
	out := &Community{
		agentIdx:  c.agentIdx,
		agentIDs:  slices.Clip(c.agentIDs), // an append must not land in the shared array
		agentRecs: slices.Clone(c.agentRecs),
		prodIdx:   c.prodIdx,
		prodIDs:   slices.Clip(c.prodIDs),
		prodRecs:  slices.Clone(c.prodRecs),
		tax:       c.tax,
	}
	out.gen.Store(new(generation))
	c.gen.Store(new(generation))
	return out
}

// TrustEdges returns the full trust network as a flat statement list, in
// deterministic order (by source insertion order, then by the per-agent
// order of TrustedPeers).
func (c *Community) TrustEdges() []TrustStatement {
	var out []TrustStatement
	for _, a := range c.agentRecs {
		out = append(out, a.TrustedPeers()...)
	}
	return out
}

// Stats summarizes the community, mirroring the §4.1 infrastructure report
// (≈9,100 users, 9,953 books, their trust relationships and ratings).
type Stats struct {
	Agents        int
	Products      int
	TrustEdges    int
	Ratings       int
	MeanTrustDeg  float64 // mean outdegree of the trust graph
	MeanRatings   float64 // mean ratings per agent
	DistrustEdges int     // edges with negative value
}

// ComputeStats scans the community and returns aggregate statistics.
func (c *Community) ComputeStats() Stats {
	s := Stats{Agents: len(c.agentRecs), Products: len(c.prodRecs)}
	for _, a := range c.agentRecs {
		s.TrustEdges += len(a.Trust)
		s.Ratings += len(a.Ratings)
		for _, v := range a.Trust {
			if v < 0 {
				s.DistrustEdges++
			}
		}
	}
	if s.Agents > 0 {
		s.MeanTrustDeg = float64(s.TrustEdges) / float64(s.Agents)
		s.MeanRatings = float64(s.Ratings) / float64(s.Agents)
	}
	return s
}

// Validate checks the §3.1 model invariants over the whole view: trust
// and rating values in [-1,+1], no self-trust, every rating referencing a
// catalog entry, and every product descriptor resolving in the taxonomy.
// It returns the first violation found, or nil. Crawled and imported
// views are checked before recommendation computation trusts them.
func (c *Community) Validate() error {
	for _, a := range c.agentRecs {
		id := a.ID
		for peer, v := range a.Trust {
			if peer == id {
				return fmt.Errorf("%w: %s", ErrSelfTrust, id)
			}
			if !InRange(v) {
				return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, id, peer, v)
			}
		}
		for p, v := range a.Ratings {
			if !InRange(v) {
				return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, id, p, v)
			}
			if _, ok := c.prodIdx.ord[p]; !ok {
				return fmt.Errorf("%w: rating of %s by %s", ErrUnknownProduct, p, id)
			}
		}
	}
	if c.tax != nil {
		limit := taxonomy.Topic(c.tax.Len())
		for _, p := range c.prodRecs {
			for _, d := range p.Topics {
				if d < 0 || d >= limit {
					return fmt.Errorf("model: product %s references topic %d outside the taxonomy", p.ID, d)
				}
			}
		}
	}
	return nil
}
