// Package trust implements the local group trust metrics that form the
// first pillar of the paper's approach (§3.2): trust neighborhood
// formation for an active agent a_i, relying only on partial trust graph
// information and exploring the social network within predefined ranges so
// that neighborhood detection retains scalability.
//
// Three metrics are provided:
//
//   - Appleseed (Ziegler & Lausen 2004 [12]): the paper's own local group
//     trust metric, derived from spreading activation models (Quillian
//     [13]). It assigns continuous trust ranks to peers within the
//     computation range, with high ranks accorded to agents largely
//     trusted by others of high trustworthiness.
//   - Advogato (Levien & Aiken 1998 [11]): the most well-known prior local
//     group trust metric; max-flow based and only able to make boolean
//     trustworthiness decisions — the limitation the paper contrasts
//     Appleseed against.
//   - PathTrust: a simple scalar baseline that scores each peer by the
//     strongest multiplicative trust chain from the source, standing in
//     for classic scalar metrics (Beth et al. [10]) in the experiments.
//
// All metrics consume a Network, an abstraction over "whose trust
// statements can I fetch" that both a fully materialized model.Community
// and a partially crawled view satisfy.
package trust

import (
	"slices"

	"swrec/internal/model"
)

// Network exposes the partial trust graph a metric may explore. Statements
// carry values in [-1, +1]; negative values are explicit distrust, which
// the metrics must not confuse with absence of trust (§3.1, Marsh [8]).
type Network interface {
	// Peers returns the trust statements issued by a. The result may be
	// empty for unknown or silent agents.
	Peers(a model.AgentID) []model.TrustStatement
}

// communityNet adapts a materialized community to the Network interface.
type communityNet struct {
	// adj is the community's compiled adjacency, which the Appleseed walk
	// and one-hop widening run on; its trust CSR compiles on first use.
	adj *model.Adjacency
}

// FromCommunity exposes a community's trust edges as a Network over a
// fresh compiled adjacency.
func FromCommunity(c *model.Community) Network { return FromAdjacency(c.Adjacency()) }

// FromAdjacency is FromCommunity over an adjacency the caller already
// holds — a serving snapshot's — so its compiled trust CSR is reused
// instead of compiled again.
func FromAdjacency(adj *model.Adjacency) Network { return communityNet{adj: adj} }

func (n communityNet) Peers(a model.AgentID) []model.TrustStatement {
	ag := n.adj.Community().Agent(a)
	if ag == nil {
		return nil
	}
	return ag.TrustedPeers()
}

// NumAgents bounds the explorable node count, letting metrics pre-size
// their frontier structures (see sizeHinter).
func (n communityNet) NumAgents() int { return n.adj.NumAgents() }

// sizeHinter is the optional Network capability of bounded graphs: the
// number of agents a full exploration could possibly discover.
type sizeHinter interface {
	NumAgents() int
}

// Rank is one entry of a computed trust neighborhood: the peer and its
// continuous trust rank (metric-specific scale; only the ordering and
// relative magnitude matter downstream).
type Rank struct {
	Agent model.AgentID
	Trust float64
	// ord is the peer's community ordinal + 1 when the metric that ranked
	// it walked a compiled adjacency, so later stages address the peer
	// without hashing its URI; 0 (the zero value) means resolve by Agent.
	ord int32
}

// Ord returns the peer's community ordinal; ok is false when the rank
// was built without one and the peer must be resolved by its Agent URI.
func (r Rank) Ord() (ord int32, ok bool) { return r.ord - 1, r.ord > 0 }

// Neighborhood is the ranked result of a local group trust computation for
// one source agent, sorted by descending trust (ties broken by agent ID).
type Neighborhood struct {
	Source model.AgentID
	Ranks  []Rank
	// Iterations is the number of passes the metric ran until convergence
	// (Appleseed) or levels explored (Advogato, PathTrust).
	Iterations int
	// Explored is the number of distinct agents whose trust statements
	// were fetched — the metric's network cost.
	Explored int
}

// sortRanks orders ranks by descending trust, then ID, in place.
func sortRanks(rs []Rank) {
	slices.SortFunc(rs, func(a, b Rank) int {
		switch {
		case a.Trust > b.Trust:
			return -1
		case a.Trust < b.Trust:
			return 1
		case a.Agent < b.Agent:
			return -1
		case a.Agent > b.Agent:
			return 1
		default:
			return 0
		}
	})
}

// Top returns the n highest-ranked peers (all if n <= 0 or beyond range).
func (nb *Neighborhood) Top(n int) []Rank {
	if n <= 0 || n >= len(nb.Ranks) {
		return nb.Ranks
	}
	return nb.Ranks[:n]
}

// RankOf returns the trust rank of peer and whether it is in range.
func (nb *Neighborhood) RankOf(peer model.AgentID) (float64, bool) {
	for _, r := range nb.Ranks {
		if r.Agent == peer {
			return r.Trust, true
		}
	}
	return 0, false
}

// Contains reports whether peer made it into the neighborhood.
func (nb *Neighborhood) Contains(peer model.AgentID) bool {
	_, ok := nb.RankOf(peer)
	return ok
}
