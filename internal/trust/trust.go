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
// All metrics walk one substrate: a community's compiled adjacency
// (model.Adjacency), whose trust CSR lists every agent's statements in
// TrustedPeers order by ordinal. They take the source as an ordinal and
// return ranks that carry their peer's ordinal, so later stages never
// resolve a URI. The "partial trust graph" of §3.2 is what the walks'
// own bounds (Appleseed's MaxNodes, Advogato's capacity profile,
// PathTrust's horizon) leave explored; a partially crawled view is served
// the same way — the crawler materializes what it fetched as a community,
// and the metrics run on that.
package trust

import "swrec/internal/model"

// FromCommunity returns a fresh compiled adjacency of c, the substrate
// every metric and WidenOneHop walk; its trust CSR compiles on first use.
// A caller that already holds an adjacency (a serving snapshot's) passes
// that instead.
func FromCommunity(c *model.Community) *model.Adjacency { return c.Adjacency() }

// Rank is one entry of a computed trust neighborhood: the peer and its
// continuous trust rank (metric-specific scale; only the ordering and
// relative magnitude matter downstream). Later stages address the peer by
// its ordinal; the zero value names no agent and widens or votes nothing.
type Rank struct {
	Agent model.AgentID
	Trust float64
	ord   int32 // the peer's community ordinal + 1; 0 = not in this community
}

// NewRank returns agent a's rank, its URI and ordinal taken from one record.
func NewRank(a *model.Agent, trust float64) Rank {
	return Rank{Agent: a.ID, Trust: trust, ord: a.Ord() + 1}
}

// Ord returns the peer's community ordinal, -1 for the zero value.
func (r Rank) Ord() int32 { return r.ord - 1 }

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

// nodeTable numbers the agents a walk discovers: nodes are dense indices
// in discovery order. at, which maps an agent ordinal to its node, is the
// only table sized by the community; it is zero between computations
// (reset re-zeroes exactly the discovered entries), so a pooled table
// starts in O(1) whatever the community size — as the Appleseed walk's
// does.
type nodeTable struct {
	at  []int32 // by agent ordinal: node index + 1; 0 = not discovered
	ord []int32 // by node: the agent's ordinal
}

// node returns agent x's node, numbering it on first sight.
func (t *nodeTable) node(x int32) (n int32, fresh bool) {
	if n := t.at[x]; n != 0 {
		return n - 1, false
	}
	t.ord = append(t.ord, x)
	t.at[x] = int32(len(t.ord))
	return int32(len(t.ord)) - 1, true
}

func (t *nodeTable) reset() {
	for _, x := range t.ord {
		t.at[x] = 0
	}
	t.ord = t.ord[:0]
}

// sortRanks orders ranks in peer order: descending trust, then ID.
func sortRanks(rs []Rank) { SortPeers(rs, rankTrust, rankAgent) }

func rankTrust(r *Rank) float64       { return r.Trust }
func rankAgent(r *Rank) model.AgentID { return r.Agent }

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
