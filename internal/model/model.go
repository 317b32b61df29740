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
}

// Ord returns the product's dense per-community ordinal (see ord).
func (p *Product) Ord() int32 { return p.ord }

// Agent is the materialized state of one agent: its partial trust function
// t_i (map absence = ⊥) and its partial rating function r_i.
type Agent struct {
	ID      AgentID
	Name    string // optional display name (foaf:name)
	Trust   map[AgentID]float64
	Ratings map[ProductID]float64
	// peersMemo and ratingsMemo cache the sorted statement views
	// (TrustedPeers, RatedProducts), which the trust metrics and profile
	// generation walk once per agent per request. Atomic so concurrent
	// readers of an immutable snapshot may race on first build: every
	// build produces the identical sorted slice, so last-store-wins is
	// benign. Mutators going through the Community setters invalidate;
	// code that writes the maps directly must call MarkDirty.
	peersMemo   atomic.Pointer[[]TrustStatement]
	ratingsMemo atomic.Pointer[[]RatingStatement]
	posMemo     atomic.Pointer[[]PositiveRating]
	refsMemo    atomic.Pointer[[]TrustRef]
	// ord is the agent's dense per-community ordinal in [0, NumAgents),
	// assigned at materialization (agents are never deleted). Graph
	// walks index flat tables by it instead of hashing agent IDs.
	ord int32
}

// Ord returns the agent's dense per-community ordinal (see ord).
func (a *Agent) Ord() int32 { return a.ord }

// TrustRef is one trust statement with its target resolved to the
// community's agent record — the unit trust-graph walks traverse without
// paying a string-keyed lookup per edge.
type TrustRef struct {
	Peer  *Agent
	Value float64
}

// PositiveRating is one positively rated, catalog-resolved product of an
// agent — the unit of profile generation (§3.3), with the product
// pre-resolved so the hot path pays no catalog lookup.
type PositiveRating struct {
	Product *Product
	Value   float64
}

// MarkDirty drops the agent's cached derived views. The Community
// setters call it automatically; callers mutating Trust or Ratings maps
// directly (evaluation harnesses) must call it themselves afterwards.
func (a *Agent) MarkDirty() {
	a.peersMemo.Store(nil)
	a.ratingsMemo.Store(nil)
	a.posMemo.Store(nil)
	a.refsMemo.Store(nil)
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
	slices.SortFunc(out, func(x, y TrustStatement) int {
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
	})
	a.peersMemo.Store(&out)
	return out
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
	slices.SortFunc(out, func(x, y RatingStatement) int {
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
	})
	a.ratingsMemo.Store(&out)
	return out
}

// PositiveRatings returns agent a's positive ratings with their catalog
// entries resolved, in RatedProducts order (descending value, ties by
// product ID). Ratings referencing products missing from this catalog
// are skipped. The slice is memoized on the agent until its ratings
// change and must not be modified; the product pointers stay valid
// across catalog metadata refreshes because AddProduct updates records
// in place.
func (c *Community) PositiveRatings(a *Agent) []PositiveRating {
	if m := a.posMemo.Load(); m != nil {
		return *m
	}
	out := make([]PositiveRating, 0, len(a.Ratings))
	for _, rs := range a.RatedProducts() {
		if rs.Value <= 0 {
			break // positives form a prefix
		}
		if p := c.products[rs.Product]; p != nil {
			out = append(out, PositiveRating{Product: p, Value: rs.Value})
		}
	}
	a.posMemo.Store(&out)
	return out
}

// TrustRefs returns agent a's trust statements with the targets resolved
// to this community's agent records, in TrustedPeers order (descending
// value, ties by ID). Targets are always materialized — SetTrust and
// Merge register both endpoints — so every statement resolves; a target
// missing anyway (direct map mutation bypassing the invariant) is
// skipped. Memoized on the agent until its trust function changes; the
// slice must not be modified.
func (c *Community) TrustRefs(a *Agent) []TrustRef {
	if m := a.refsMemo.Load(); m != nil {
		return *m
	}
	out := make([]TrustRef, 0, len(a.Trust))
	for _, st := range a.TrustedPeers() {
		if p := c.agents[st.Dst]; p != nil {
			out = append(out, TrustRef{Peer: p, Value: st.Value})
		}
	}
	a.refsMemo.Store(&out)
	return out
}

// Community is a local, materialized view of the distributed model: the
// agents known so far, the global product catalog, and the shared taxonomy.
// It is the substrate all recommendation computation operates on.
//
// A Community is not safe for concurrent mutation. Reads may proceed
// concurrently once loading is finished.
type Community struct {
	agents   map[AgentID]*Agent
	agentIDs []AgentID // insertion order, for deterministic iteration
	// agentRecs[ord] is the record of the agent with that ordinal — the
	// dense table Symbols.AgentAt and the compiled adjacency index.
	agentRecs []*Agent
	products  map[ProductID]*Product
	prodIDs   []ProductID
	prodRecs  []*Product // prodRecs[ord], as agentRecs
	tax       *taxonomy.Taxonomy
}

// NewCommunity creates an empty community over the given taxonomy. The
// taxonomy may be nil for pure trust-network use; profile generation
// requires one.
func NewCommunity(tax *taxonomy.Taxonomy) *Community {
	return &Community{
		agents:   make(map[AgentID]*Agent),
		products: make(map[ProductID]*Product),
		tax:      tax,
	}
}

// Taxonomy returns the community's shared taxonomy C (may be nil).
func (c *Community) Taxonomy() *taxonomy.Taxonomy { return c.tax }

// NumAgents returns |A| as materialized locally.
func (c *Community) NumAgents() int { return len(c.agents) }

// NumProducts returns |B|.
func (c *Community) NumProducts() int { return len(c.products) }

// AddAgent registers an agent if not yet present and returns its record.
func (c *Community) AddAgent(id AgentID) *Agent {
	if a, ok := c.agents[id]; ok {
		return a
	}
	a := newAgent(id)
	a.ord = int32(len(c.agentIDs))
	c.agents[id] = a
	c.agentIDs = append(c.agentIDs, id)
	c.agentRecs = append(c.agentRecs, a)
	return a
}

// Agent returns the record of id, or nil if unknown.
func (c *Community) Agent(id AgentID) *Agent { return c.agents[id] }

// HasAgent reports whether id has been materialized.
func (c *Community) HasAgent(id AgentID) bool { _, ok := c.agents[id]; return ok }

// Agents returns all agent IDs in insertion order. The slice must not be
// modified.
func (c *Community) Agents() []AgentID { return c.agentIDs }

// AddProduct registers a catalog entry. Re-adding an existing ID replaces
// its metadata (catalogs get refreshed by crawls).
func (c *Community) AddProduct(p Product) *Product {
	if old, ok := c.products[p.ID]; ok {
		ord := old.ord
		*old = p
		old.ord = ord // the dense ordinal survives metadata refreshes
		return old
	}
	cp := p
	cp.ord = int32(len(c.prodIDs))
	c.products[p.ID] = &cp
	c.prodIDs = append(c.prodIDs, p.ID)
	c.prodRecs = append(c.prodRecs, &cp)
	return &cp
}

// Product returns the catalog entry for id, or nil if unknown.
func (c *Community) Product(id ProductID) *Product { return c.products[id] }

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
	if v < MinValue || v > MaxValue {
		return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, src, dst, v)
	}
	c.AddAgent(dst)
	a := c.AddAgent(src)
	a.Trust[dst] = v
	a.peersMemo.Store(nil)
	a.refsMemo.Store(nil)
	return nil
}

// Trust returns t_src(dst); ok is false when the value is ⊥ (absent).
func (c *Community) Trust(src, dst AgentID) (v float64, ok bool) {
	a := c.agents[src]
	if a == nil {
		return 0, false
	}
	v, ok = a.Trust[dst]
	return v, ok
}

// SetRating records r_agent(product) = v. The product must already be in
// the catalog: ratings refer to globally known identifiers (§3.1).
func (c *Community) SetRating(agent AgentID, product ProductID, v float64) error {
	if v < MinValue || v > MaxValue {
		return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, agent, product, v)
	}
	if _, ok := c.products[product]; !ok {
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
	a := c.agents[agent]
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
	if a := c.agents[src]; a != nil {
		delete(a.Trust, dst)
		a.peersMemo.Store(nil)
		a.refsMemo.Store(nil)
	}
}

// DeleteRating retracts r_agent(product), restoring ⊥. Retracting an
// absent rating is a no-op.
func (c *Community) DeleteRating(agent AgentID, product ProductID) {
	if a := c.agents[agent]; a != nil {
		delete(a.Ratings, product)
		a.ratingsMemo.Store(nil)
		a.posMemo.Store(nil)
	}
}

// Clone returns a deep copy of the community: agents, trust and rating
// functions, and the catalog are copied; the taxonomy (immutable once
// built) is shared. Insertion order is preserved, so a clone is
// byte-equivalent to the original under deterministic serialization.
// Clone is how the ingestion path derives a mutable working copy from a
// snapshot that is concurrently being served.
func (c *Community) Clone() *Community {
	out := &Community{
		agents:    make(map[AgentID]*Agent, len(c.agents)),
		agentIDs:  append([]AgentID(nil), c.agentIDs...),
		agentRecs: make([]*Agent, len(c.agentRecs)),
		products:  make(map[ProductID]*Product, len(c.products)),
		prodIDs:   append([]ProductID(nil), c.prodIDs...),
		prodRecs:  make([]*Product, len(c.prodRecs)),
		tax:       c.tax,
	}
	for ord, a := range c.agentRecs {
		cp := &Agent{
			ID:      a.ID,
			Name:    a.Name,
			Trust:   make(map[AgentID]float64, len(a.Trust)),
			Ratings: make(map[ProductID]float64, len(a.Ratings)),
			ord:     a.ord,
		}
		for peer, v := range a.Trust {
			cp.Trust[peer] = v
		}
		for p, v := range a.Ratings {
			cp.Ratings[p] = v
		}
		out.agents[a.ID] = cp
		out.agentRecs[ord] = cp
	}
	for ord, p := range c.prodRecs {
		cp := *p
		cp.Topics = append([]taxonomy.Topic(nil), p.Topics...)
		out.products[p.ID] = &cp
		out.prodRecs[ord] = &cp
	}
	return out
}

// TrustEdges returns the full trust network as a flat statement list, in
// deterministic order (by source insertion order, then by the per-agent
// order of TrustedPeers).
func (c *Community) TrustEdges() []TrustStatement {
	var out []TrustStatement
	for _, id := range c.agentIDs {
		out = append(out, c.agents[id].TrustedPeers()...)
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
	s := Stats{Agents: len(c.agents), Products: len(c.products)}
	for _, a := range c.agents {
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
	for _, id := range c.agentIDs {
		a := c.agents[id]
		for peer, v := range a.Trust {
			if peer == id {
				return fmt.Errorf("%w: %s", ErrSelfTrust, id)
			}
			if v < MinValue || v > MaxValue {
				return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, id, peer, v)
			}
		}
		for p, v := range a.Ratings {
			if v < MinValue || v > MaxValue {
				return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, id, p, v)
			}
			if _, ok := c.products[p]; !ok {
				return fmt.Errorf("%w: rating of %s by %s", ErrUnknownProduct, p, id)
			}
		}
	}
	if c.tax != nil {
		limit := taxonomy.Topic(c.tax.Len())
		for _, pid := range c.prodIDs {
			for _, d := range c.products[pid].Topics {
				if d < 0 || d >= limit {
					return fmt.Errorf("model: product %s references topic %d outside the taxonomy", pid, d)
				}
			}
		}
	}
	return nil
}

// Merge folds the contents of other into c: union of agents, trust and
// rating statements (other wins on conflicts, it is assumed fresher), and
// union of catalogs. Taxonomies are not merged; c keeps its own. Merge is
// how a crawler incrementally extends its materialized view.
func (c *Community) Merge(other *Community) {
	for _, pid := range other.prodIDs {
		c.AddProduct(*other.products[pid])
	}
	for _, id := range other.agentIDs {
		src := other.agents[id]
		dst := c.AddAgent(id)
		if src.Name != "" {
			dst.Name = src.Name
		}
		for peer, v := range src.Trust {
			c.AddAgent(peer)
			dst.Trust[peer] = v
		}
		for p, v := range src.Ratings {
			if _, ok := c.products[p]; !ok {
				// Statement about a product the catalog does not know yet;
				// register a bare entry so the rating is not lost.
				c.AddProduct(Product{ID: p})
			}
			dst.Ratings[p] = v
		}
		dst.MarkDirty()
	}
}
