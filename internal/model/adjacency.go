package model

import "sync"

// CSR is one compiled relation of a community in compressed-sparse-row
// form, keyed by agent ordinal: the entries of agent ord are
// Idx[Off[ord]:Off[ord+1]] beside Val[Off[ord]:Off[ord+1]]. Immutable
// once compiled.
type CSR struct {
	Off []int32   // len NumAgents+1, ascending
	Idx []int32   // target ordinal of each entry (agent or product)
	Val []float64 // the statement's value
}

// Row returns the targets and values of agent ord's entries.
func (m *CSR) Row(ord int32) ([]int32, []float64) {
	lo, hi := m.Off[ord], m.Off[ord+1]
	return m.Idx[lo:hi], m.Val[lo:hi]
}

// Adjacency is the compiled, ordinal-keyed form of one community view:
// the trust network and the positive ratings as CSR arenas beside the
// community's dense record tables. The cold serving pipeline (Appleseed
// walk, similarity scan, product vote) runs on it end to end, so no stage
// hashes a URI or chases a per-agent memo slice.
//
// Each relation compiles on first use and is immutable afterwards, so an
// Adjacency is safe for concurrent readers. It describes the community
// as of that compile: like every derived view it is only valid while the
// community is not mutated — serving snapshots never are; harnesses that
// mutate in place derive a fresh Adjacency (c.Adjacency(), or a fresh
// core.Recommender) afterwards.
type Adjacency struct {
	c *Community

	trustOnce sync.Once
	trust     CSR
	rateOnce  sync.Once
	ratings   CSR
}

// Adjacency returns a compiled-adjacency view of c. Creating it costs
// nothing; the trust and ratings relations compile on first use.
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

// Trust returns the trust network: per agent its statements in
// TrustedPeers order (descending value, ties by target ID — positive
// statements form a prefix of every row) with raw values, so distrust
// and nonlinear normalization are served by the same structure.
// Self-edges and statements about unmaterialized agents are dropped.
func (a *Adjacency) Trust() *CSR {
	a.trustOnce.Do(func() {
		recs := a.c.agentRecs
		m := CSR{Off: make([]int32, len(recs)+1)}
		n := 0
		for _, ag := range recs {
			n += len(ag.Trust)
		}
		m.Idx = make([]int32, 0, n)
		m.Val = make([]float64, 0, n)
		for i, ag := range recs {
			for _, st := range ag.TrustedPeers() {
				if ord, ok := a.c.agentIdx.ord[st.Dst]; ok && ord != ag.ord {
					m.Idx = append(m.Idx, ord)
					m.Val = append(m.Val, st.Value)
				}
			}
			m.Off[i+1] = int32(len(m.Idx))
		}
		a.trust = m
	})
	return &a.trust
}

// Ratings returns the positive ratings: per agent its appreciated,
// cataloged products in PositiveRatings order (descending value, ties by
// product ID) as product ordinal and value.
func (a *Adjacency) Ratings() *CSR {
	a.rateOnce.Do(func() {
		recs := a.c.agentRecs
		m := CSR{Off: make([]int32, len(recs)+1)}
		n := 0
		for _, ag := range recs {
			n += len(a.c.PositiveRatings(ag)) // memoized: the fill pass re-reads it
		}
		m.Idx = make([]int32, 0, n)
		m.Val = make([]float64, 0, n)
		for i, ag := range recs {
			for _, pr := range a.c.PositiveRatings(ag) {
				m.Idx = append(m.Idx, pr.Ord)
				m.Val = append(m.Val, pr.Value)
			}
			m.Off[i+1] = int32(len(m.Idx))
		}
		a.ratings = m
	})
	return &a.ratings
}
