package model

// Adjacency is the ordinal-keyed view of one community that the cold
// serving pipeline (Appleseed walk, similarity scan, product vote) runs
// on end to end: agents, products and their statement rows by ordinal,
// so no stage hashes a URI.
//
// It reads the community's records as they are, so it holds nothing of
// its own and is as safe for concurrent readers as the community is:
// serving snapshots are never mutated, and a harness that mutates a
// community in place sees its writes through every Adjacency of it.
type Adjacency struct {
	c *Community
}

// Adjacency returns the ordinal-keyed view of c. Creating it costs
// nothing.
func (c *Community) Adjacency() *Adjacency { return &Adjacency{c: c} }

// Community returns the community view the adjacency describes.
func (a *Adjacency) Community() *Community { return a.c }

// NumAgents returns the size of the agent ordinal space.
func (a *Adjacency) NumAgents() int { return len(a.c.agentRecs) }

// NumProducts returns the size of the product ordinal space.
func (a *Adjacency) NumProducts() int { return len(a.c.prodRecs) }

// Agent returns the record of the agent with the given ordinal, which
// must lie in [0, NumAgents).
func (a *Adjacency) Agent(ord int32) *Agent { return a.c.agentRecs[ord] }

// Product returns the record of the product with the given ordinal,
// which must lie in [0, NumProducts).
func (a *Adjacency) Product(ord int32) *Product { return a.c.prodRecs[ord] }

// Trust returns agent ord's trust row — target agent ordinals and raw
// values in TrustedPeers order, positive statements a prefix — so
// distrust and nonlinear normalization are served by the same structure.
func (a *Adjacency) Trust(ord int32) Row { return a.c.agentRecs[ord].trust }

// Ratings returns agent ord's rating row: product ordinals and values in
// RatedProducts order, positive ratings a prefix.
func (a *Adjacency) Ratings(ord int32) Row { return a.c.agentRecs[ord].ratings }
