package trust

import (
	"sync"

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
// compiled trust CSR: membership and contributions are looked up by agent
// ordinal in a pooled table, so no edge visit hashes a URI and no call
// allocates by community size. Generic
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

// widening is the pooled state of one widenRefs call. slot, which maps
// an agent ordinal to what the call knows of it, is the only table sized
// by the community; it is zero between calls (release re-zeroes exactly
// the entries the call marked), so a pooled widening starts in O(1)
// whatever the community size — as the compiled Appleseed walk does.
type widening struct {
	slot   []int32   // by agent ordinal: 0 unseen, inRange, or k > 0 for joined[k-1]
	joined []int32   // the peers one hop past the range, in discovery order
	rank   []float64 // by joiner: its strongest contribution so far
}

// inRange marks the source and the current members in widening.slot.
const inRange = -1

var wideningPool sync.Pool

func getWidening(agents int) *widening {
	if w, ok := wideningPool.Get().(*widening); ok && len(w.slot) >= agents {
		return w
	}
	return &widening{slot: make([]int32, agents)}
}

// widenRefs is the community fast path: membership and contributions are
// looked up by agent ordinal in a pooled table, and everything else is
// proportional to the widened frontier rather than the community size.
// Each contributor's statements are its row of the trust CSR —
// TrustedPeers order with the targets already resolved. Members ranked by
// a compiled walk carry their ordinal and resolve without a URI lookup.
func widenRefs(net communityNet, nb *Neighborhood, src int32, decay float64) *Neighborhood {
	sym := net.adj.Community().Symbols()
	member := func(r Rank) (int32, bool) {
		if ord, ok := r.Ord(); ok {
			return ord, true
		}
		return sym.AgentOrd(r.Agent)
	}
	w := getWidening(net.adj.NumAgents())
	w.slot[src] = inRange
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if ord, ok := member(r); ok {
			w.slot[ord] = inRange
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
			r := decay * rank * vals[k]
			switch at := w.slot[ord]; {
			case at == inRange:
			case at > 0:
				w.rank[at-1] = max(w.rank[at-1], r)
			case r > 0:
				w.joined, w.rank = append(w.joined, ord), append(w.rank, r)
				w.slot[ord] = int32(len(w.joined))
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
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(w.joined))
	copy(out.Ranks, nb.Ranks)
	for k, ord := range w.joined {
		out.Ranks = append(out.Ranks, Rank{Agent: net.adj.Agent(ord).ID, Trust: w.rank[k], ord: ord + 1})
		w.slot[ord] = 0
	}
	sortRanks(out.Ranks)

	w.slot[src] = 0
	for _, r := range nb.Ranks {
		if ord, ok := member(r); ok {
			w.slot[ord] = 0
		}
	}
	w.joined, w.rank = w.joined[:0], w.rank[:0]
	wideningPool.Put(w)
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
