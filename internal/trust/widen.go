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
// Community-backed networks take an ordinal-indexed walk: membership and
// contributions live in flat tables indexed by Agent.Ord, so no edge
// visit hashes a URI. Generic networks fall back to interning discovered
// agents to dense indices once each.
func WidenOneHop(net Network, nb *Neighborhood, decay float64) *Neighborhood {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	if cn, ok := net.(communityNet); ok {
		if src := cn.c.Agent(nb.Source); src != nil {
			return widenRefs(cn, nb, src, decay)
		}
	}
	return widenGeneric(net, nb, decay)
}

// widenRefs is the community fast path: in/added are dense ordinal
// tables, the touched list keeps the collection pass proportional to the
// widened frontier rather than the community size. Members ranked by a
// compiled walk carry their ordinal and resolve without a URI lookup.
func widenRefs(net communityNet, nb *Neighborhood, src *model.Agent, decay float64) *Neighborhood {
	n := net.c.NumAgents()
	member := func(r Rank) *model.Agent {
		if ord, ok := r.Ord(); ok {
			return net.adj.Agent(ord)
		}
		return net.c.Agent(r.Agent)
	}
	in := make([]bool, n)
	added := make([]float64, n)
	var touched []*model.Agent

	in[src.Ord()] = true
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if a := member(r); a != nil {
			in[a.Ord()] = true
		}
		if r.Trust > maxRank {
			maxRank = r.Trust
		}
	}
	if maxRank <= 0 {
		maxRank = 1
	}

	explored := 0
	contribute := func(from *model.Agent, rank float64) {
		explored++
		for _, pr := range net.c.TrustRefs(from) {
			if pr.Value <= 0 {
				continue
			}
			ord := pr.Peer.Ord()
			if in[ord] {
				continue
			}
			if r := decay * rank * pr.Value; r > added[ord] {
				if added[ord] == 0 {
					touched = append(touched, pr.Peer)
				}
				added[ord] = r
			}
		}
	}
	contribute(src, maxRank)
	for _, r := range nb.Ranks {
		if a := member(r); a != nil {
			contribute(a, r.Trust)
		}
	}

	out := &Neighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(touched))
	copy(out.Ranks, nb.Ranks)
	for _, ref := range touched {
		out.Ranks = append(out.Ranks, Rank{Agent: ref.ID, Trust: added[ref.Ord()], ord: ref.Ord() + 1})
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
