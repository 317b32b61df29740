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
// All metrics walk one substrate: a community's adjacency
// (model.Adjacency), which reads every agent's trust row — its
// statements in TrustedPeers order, targets by ordinal. They take the
// source as an ordinal and return ranks that name their peer by ordinal
// alone, so no later stage resolves a URI; a caller that prints a peer
// resolves it through model.Symbols. The "partial trust graph" of §3.2
// is what the walks' own bounds (Appleseed's MaxNodes, Advogato's
// capacity profile, PathTrust's horizon) leave explored; a partially
// crawled view is served the same way — the crawler materializes what it
// fetched as a community, and the metrics run on that.
package trust

import "swrec/internal/model"

// FromCommunity returns an adjacency of c, the substrate every metric
// and WidenOneHop walk; it costs nothing to create. A caller that already holds an adjacency (a serving snapshot's) passes
// that instead.
func FromCommunity(c *model.Community) *model.Adjacency { return c.Adjacency() }

// Rank is one entry of a computed trust neighborhood: the peer, named by
// its community ordinal, and its continuous trust rank (metric-specific
// scale; only the ordering and relative magnitude matter downstream).
// It holds no pointer; a peer's URI is resolved through the community's
// symbol table where something prints it.
type Rank struct {
	Trust float64
	ord   int32
}

// NewRank returns the rank of the agent with ordinal ord.
func NewRank(ord int32, trust float64) Rank { return Rank{Trust: trust, ord: ord} }

// Ord returns the peer's community ordinal.
func (r Rank) Ord() int32 { return r.ord }

// Neighborhood is the ranked result of a local group trust computation for
// one source agent, sorted by descending trust (ties broken by agent URI).
type Neighborhood struct {
	// Source is the source agent's ordinal, -1 for an agent the community
	// does not know.
	Source int32
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

// sortRanks orders ranks in peer order: descending trust, then the URI
// ids, the community's ordinal → URI table, gives each.
func sortRanks(rs []Rank, ids []model.AgentID) { SortPeers(rs, rankTrust, rankOrd, ids) }

func rankTrust(r *Rank) float64 { return r.Trust }
func rankOrd(r *Rank) int32     { return r.ord }

// Top returns the n highest-ranked peers (all if n <= 0 or beyond range).
func (nb *Neighborhood) Top(n int) []Rank {
	if n <= 0 || n >= len(nb.Ranks) {
		return nb.Ranks
	}
	return nb.Ranks[:n]
}
