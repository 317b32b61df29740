package trust

import (
	"swrec/internal/graph"
	"swrec/internal/model"
)

// WidenOneHop expands a computed neighborhood by one trust hop beyond
// its current range — the ladder's answer to thin neighborhoods where
// the metric's "predefined range" (§3.2) left too few peers to vote.
// Following the horizon-widening idea of Jamali's distributed
// trust-aware recommendation, every positively trusted peer of the
// source or of a current member that is not yet in range joins with
//
//	rank(y) = decay · rank(x) · t_x(y)
//
// where x is the contributing member (the source contributes with the
// neighborhood's maximum rank, or 1 when the neighborhood is empty) and
// t_x(y) its positive trust statement. A peer reachable from several
// members keeps the strongest contribution. Existing members keep their
// ranks untouched; negative statements never widen (distrust must not
// recruit). The input neighborhood is not modified.
//
// Community-backed networks take an ordinal-indexed walk over the
// compiled trust CSR: membership and contributions live in flat tables
// indexed by agent ordinal, so no edge visit hashes a URI. Generic
// networks fall back to interning discovered agents to dense indices
// once each.
func WidenOneHop(net Network, nb *Neighborhood, decay float64) *Neighborhood {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	if cn, ok := net.(communityNet); ok {
		if src := cn.adj.Community().Agent(nb.Source); src != nil {
			return widenRefs(cn, nb, src.Ord(), decay)
		}
	}
	return widenGeneric(net, nb, decay)
}

// widenRefs is the community fast path: in/added are dense ordinal
// tables, the touched list keeps the collection pass proportional to the
// widened frontier rather than the community size. Each contributor's
// statements are its row of the trust CSR — TrustedPeers order with the
// targets already resolved. Members ranked by a compiled walk carry
// their ordinal and resolve without a URI lookup.
func widenRefs(net communityNet, nb *Neighborhood, src int32, decay float64) *Neighborhood {
	n := net.adj.NumAgents()
	sym := net.adj.Community().Symbols()
	member := func(r Rank) (int32, bool) {
		if ord, ok := r.Ord(); ok {
			return ord, true
		}
		return sym.AgentOrd(r.Agent)
	}
	in := make([]bool, n)
	added := make([]float64, n)
	var touched []int32

	in[src] = true
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if ord, ok := member(r); ok {
			in[ord] = true
		}
		if r.Trust > maxRank {
			maxRank = r.Trust
		}
	}
	if maxRank <= 0 {
		maxRank = 1
	}

	csr := net.adj.Trust()
	explored := 0
	contribute := func(from int32, rank float64) {
		explored++
		peers, vals := csr.Row(from)
		for k, ord := range peers {
			if vals[k] <= 0 {
				break // positive statements form a prefix of every row
			}
			if in[ord] {
				continue
			}
			if r := decay * rank * vals[k]; r > added[ord] {
				if added[ord] == 0 {
					touched = append(touched, ord)
				}
				added[ord] = r
			}
		}
	}
	contribute(src, maxRank)
	for _, r := range nb.Ranks {
		if ord, ok := member(r); ok {
			contribute(ord, r.Trust)
		}
	}

	out := &Neighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(touched))
	copy(out.Ranks, nb.Ranks)
	for _, ord := range touched {
		out.Ranks = append(out.Ranks, Rank{Agent: net.adj.Agent(ord).ID, Trust: added[ord], ord: ord + 1})
	}
	sortRanks(out.Ranks)
	return out
}

// widenGeneric is WidenOneHop over a plain Network: discovered agents are
// interned to dense indices, membership and contribution live in flat
// slices over the intern space.
func widenGeneric(net Network, nb *Neighborhood, decay float64) *Neighborhood {
	var sym graph.Interner
	sym.Intern(string(nb.Source))
	for _, r := range nb.Ranks {
		sym.Intern(string(r.Agent))
	}
	// Indices below inCount are the source and current members; every
	// index at or past it is a widened candidate.
	inCount := sym.Len()
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if r.Trust > maxRank {
			maxRank = r.Trust
		}
	}
	if maxRank <= 0 {
		maxRank = 1
	}

	var added []float64 // added[i-inCount] is candidate i's best contribution
	explored := 0
	contribute := func(from model.AgentID, rank float64) {
		explored++
		for _, st := range net.Peers(from) {
			if st.Value <= 0 {
				continue
			}
			i := sym.Intern(string(st.Dst))
			if i < inCount {
				continue
			}
			j := i - inCount
			if j == len(added) {
				added = append(added, 0)
			}
			if r := decay * rank * st.Value; r > added[j] {
				added[j] = r
			}
		}
	}
	contribute(nb.Source, maxRank)
	for _, r := range nb.Ranks {
		contribute(r.Agent, r.Trust)
	}

	out := &Neighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(added))
	copy(out.Ranks, nb.Ranks)
	for j, r := range added {
		if r > 0 {
			out.Ranks = append(out.Ranks, Rank{Agent: model.AgentID(sym.Name(inCount + j)), Trust: r})
		}
	}
	sortRanks(out.Ranks)
	return out
}
