package model

// Symbols is a community's symbol table: the bidirectional mapping
// between URI-string identifiers (AgentID, ProductID) and the dense
// int32 ordinals the hot paths compute with. It is a view over the
// community — the forward direction reads the ID→ordinal indexes (shared
// along a clone lineage until a generation appends), the reverse
// direction indexes the insertion-order ID and record slices, which by
// construction ARE the ordinal order (AddAgent/AddProduct assign ord =
// len(slice) and records are never deleted).
//
// Ordinal stability rules (what makes ordinal-keyed state carry across
// epochs):
//
//   - an agent's ordinal is assigned at first materialization and never
//     changes: Clone preserves it, the ingest apply path and the
//     importers only append, and nothing deletes agents;
//   - therefore the agents of epoch N are a prefix — with identical
//     ordinals — of the agents of every later epoch in the same clone
//     lineage, and agents joined in between occupy fresh ordinals at and
//     beyond the old NumAgents;
//   - the same holds for products (AddProduct keeps the ordinal across
//     metadata refreshes).
//
// Strings cross into ordinals exactly once per request at the API
// boundary; everything below (trust walks, similarity rows, cache keys,
// dirty sets, checkpoint records) computes on the ordinals.
type Symbols struct {
	c *Community
}

// Symbols returns the community's symbol table view.
func (c *Community) Symbols() Symbols { return Symbols{c} }

// NumAgents returns the size of the agent ordinal space.
func (s Symbols) NumAgents() int { return len(s.c.agentRecs) }

// NumProducts returns the size of the product ordinal space.
func (s Symbols) NumProducts() int { return len(s.c.prodRecs) }

// AgentOrd resolves an agent URI to its dense ordinal; ok is false for
// agents the community has not materialized.
func (s Symbols) AgentOrd(id AgentID) (int32, bool) {
	ord, ok := s.c.agentIdx.ord[id]
	return ord, ok
}

// AgentID resolves an ordinal back to its URI; ok is false outside
// [0, NumAgents).
func (s Symbols) AgentID(ord int32) (AgentID, bool) {
	if ord < 0 || int(ord) >= len(s.c.agentIDs) {
		return "", false
	}
	return s.c.agentIDs[ord], true
}

// AgentAt returns the agent record with the given ordinal, or nil
// outside the ordinal space.
func (s Symbols) AgentAt(ord int32) *Agent {
	if ord < 0 || int(ord) >= len(s.c.agentRecs) {
		return nil
	}
	return s.c.agentRecs[ord]
}

// ProductOrd resolves a product ID to its dense ordinal; ok is false for
// uncataloged products.
func (s Symbols) ProductOrd(id ProductID) (int32, bool) {
	ord, ok := s.c.prodIdx.ord[id]
	return ord, ok
}

// ProductID resolves an ordinal back to its product ID; ok is false
// outside [0, NumProducts).
func (s Symbols) ProductID(ord int32) (ProductID, bool) {
	if ord < 0 || int(ord) >= len(s.c.prodIDs) {
		return "", false
	}
	return s.c.prodIDs[ord], true
}

// ProductAt returns the product record with the given ordinal, or nil
// outside the ordinal space.
func (s Symbols) ProductAt(ord int32) *Product {
	if ord < 0 || int(ord) >= len(s.c.prodRecs) {
		return nil
	}
	return s.c.prodRecs[ord]
}
