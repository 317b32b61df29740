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
// Partiality is modeled by absence from a row (type Row): an unstated
// target is ⊥. Trust values around zero indicate *absence* of trust,
// which the paper is careful to distinguish from explicit distrust
// (negative values, Marsh [8]).
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

// Agent is the materialized state of one agent: its partial trust
// function t_i and its partial rating function r_i, each one Row.
//
// A record may be shared by several generations of a community (see
// Community.Clone), so a record obtained from Community.Agent is
// read-only: its statements change through the Community setters only,
// and its Name through the record AddAgent returns, which the community
// owns.
type Agent struct {
	// trust's targets are agent ordinals, ratings' product ordinals.
	// They lead the record, so a walk reading a row touches one line.
	trust, ratings Row
	ID             AgentID
	Name           string // optional display name (foaf:name)
	// ord is the agent's dense per-community ordinal in [0, NumAgents),
	// assigned at materialization (agents are never deleted). Graph
	// walks index flat tables by it instead of hashing agent IDs.
	ord int32
	// own says which rows' arrays the record owns (ownTrust,
	// ownRatings); the others are shared with another generation.
	own uint8
	// gen is the generation that may write this record (see Community).
	gen *generation
}

// Ord returns the agent's dense per-community ordinal (see ord).
func (a *Agent) Ord() int32 { return a.ord }

// TrustedPeers returns the agent's trust statements — the peers it
// trusts or distrusts, by agent ordinal — in served order (descending
// value, ties by the peer's URI). The row must not be modified.
func (a *Agent) TrustedPeers() Row { return a.trust }

// RatedProducts returns the agent's ratings, by product ordinal, in
// served order (descending value, ties by product ID): positive ratings
// form a prefix, so "appreciated products" scans stop at the first
// non-positive value. The row must not be modified.
func (a *Agent) RatedProducts() Row { return a.ratings }

// PositiveRatings returns the agent's positive ratings — the unit of
// profile generation (§3.3) — in RatedProducts order.
func (a *Agent) PositiveRatings() Row { return a.ratings.Positive() }

// TrustStatements returns agent a's trust statements in TrustedPeers
// order with both ends named: the form exports and answers carry.
func (c *Community) TrustStatements(a *Agent) []TrustStatement {
	out := make([]TrustStatement, len(a.trust))
	for k, e := range a.trust {
		out[k] = TrustStatement{Src: a.ID, Dst: c.agentIDs[e.Ord], Value: e.Val}
	}
	return out
}

// RatingStatements returns agent a's ratings in RatedProducts order with
// agent and product named.
func (c *Community) RatingStatements(a *Agent) []RatingStatement {
	out := make([]RatingStatement, len(a.ratings))
	for k, e := range a.ratings {
		out[k] = RatingStatement{Agent: a.ID, Product: c.prodIDs[e.Ord], Value: e.Val}
	}
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
	a := &Agent{ID: id, ord: int32(len(c.agentRecs)), gen: g}
	c.agentIdx = c.agentIdx.writable(g)
	c.agentIdx.ord[id] = a.ord
	c.agentIDs = append(c.agentIDs, id)
	c.agentRecs = append(c.agentRecs, a)
	return a.ord
}

// ownAgent returns the record with the given ordinal after making it
// this generation's own: a record shared with another generation is
// copied, and the copy takes its place in the record table. The copy
// still shares both rows' arrays; the first write to a relation copies
// that row (Agent.writable).
func (c *Community) ownAgent(ord int32) *Agent {
	a := c.agentRecs[ord]
	g := c.gen.Load()
	if a.gen == g {
		return a
	}
	cp := *a
	cp.gen, cp.own = g, 0
	c.agentRecs[ord] = &cp
	return &cp
}

// AddAgent registers an agent if not yet present and returns its record,
// owned by this generation: the caller may write its Name.
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
	d := c.ensureAgent(dst)
	a := c.AddAgent(src)
	set(a.writable(ownTrust), d, v, c.agentIDs)
	return nil
}

// Trust returns t_src(dst); ok is false when the value is ⊥ (absent).
func (c *Community) Trust(src, dst AgentID) (v float64, ok bool) {
	a, d := c.Agent(src), c.Agent(dst)
	if a == nil || d == nil {
		return 0, false
	}
	return a.trust.Find(d.ord)
}

// SetRating records r_agent(product) = v. The product must already be in
// the catalog: ratings refer to globally known identifiers (§3.1).
func (c *Community) SetRating(agent AgentID, product ProductID, v float64) error {
	if !InRange(v) {
		return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, agent, product, v)
	}
	p, ok := c.prodIdx.ord[product]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProduct, product)
	}
	a := c.AddAgent(agent)
	set(a.writable(ownRatings), p, v, c.prodIDs)
	return nil
}

// Rating returns r_agent(product); ok is false when the value is ⊥.
func (c *Community) Rating(agent AgentID, product ProductID) (v float64, ok bool) {
	a, p := c.Agent(agent), c.Product(product)
	if a == nil || p == nil {
		return 0, false
	}
	return a.ratings.Find(p.ord)
}

// DeleteTrust retracts t_src(dst), restoring ⊥. Retracting an absent
// statement is a no-op: retraction messages on the Semantic Web may
// arrive for statements never materialized locally.
func (c *Community) DeleteTrust(src, dst AgentID) {
	ord, ok := c.agentIdx.ord[src]
	d, known := c.agentIdx.ord[dst]
	if !ok || !known {
		return
	}
	if _, stated := c.agentRecs[ord].trust.Find(d); stated {
		del(c.ownAgent(ord).writable(ownTrust), d)
	}
}

// DeleteRating retracts r_agent(product), restoring ⊥. Retracting an
// absent rating is a no-op.
func (c *Community) DeleteRating(agent AgentID, product ProductID) {
	ord, ok := c.agentIdx.ord[agent]
	p, known := c.prodIdx.ord[product]
	if !ok || !known {
		return
	}
	if _, rated := c.agentRecs[ord].ratings.Find(p); rated {
		del(c.ownAgent(ord).writable(ownRatings), p)
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
		out = append(out, c.TrustStatements(a)...)
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
		s.TrustEdges += len(a.trust)
		s.Ratings += len(a.ratings)
		for _, e := range a.trust {
			if e.Val < 0 {
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

// Validate checks the §3.1 model invariants over the whole view that the
// setters cannot already guarantee: every product descriptor resolves in
// the taxonomy. (Trust and rating values in [-1,+1], no self-trust and
// every rating naming a catalog entry hold by construction: the setters
// and loaders are the only writers of a row.) It returns the first
// violation found, or nil. Crawled and imported views are checked before
// recommendation computation trusts them.
func (c *Community) Validate() error {
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
