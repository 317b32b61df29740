package trust

import (
	"sync"

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
// It walks the trust rows: membership and contributions are looked
// up by agent ordinal in a pooled table, so no edge visit hashes a URI,
// no call allocates by community size, and everything else is
// proportional to the widened frontier. Each contributor's statements are
// its trust row — TrustedPeers order with the targets as ordinals. The
// source and every member are addressed by their ordinals; a source the
// community does not know (Source -1) contributes nothing.
func WidenOneHop(adj *model.Adjacency, nb *Neighborhood, decay float64) *Neighborhood {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	w := getWidening(adj.NumAgents())
	known := nb.Source >= 0 && int(nb.Source) < adj.NumAgents()
	if known {
		w.slot[nb.Source] = inRange
	}
	top := 0.0
	for _, r := range nb.Ranks {
		w.slot[r.ord] = inRange
		top = max(top, r.Trust)
	}
	if top <= 0 {
		top = 1
	}

	explored := 0
	contribute := func(from int32, trust float64) {
		explored++
		for _, e := range adj.Trust(from) {
			if e.Val <= 0 {
				break // positive statements form a prefix of every row
			}
			ord, rank := e.Ord, decay*trust*e.Val
			switch at := w.slot[ord]; {
			case at == inRange:
			case at > 0:
				w.rank[at-1] = max(w.rank[at-1], rank)
			case rank > 0:
				w.joined, w.rank = append(w.joined, ord), append(w.rank, rank)
				w.slot[ord] = int32(len(w.joined))
			}
		}
	}
	if known {
		contribute(nb.Source, top)
	}
	for _, r := range nb.Ranks {
		contribute(r.ord, r.Trust)
	}

	out := &Neighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]Rank, len(nb.Ranks), len(nb.Ranks)+len(w.joined))
	copy(out.Ranks, nb.Ranks)
	for k, ord := range w.joined {
		out.Ranks = append(out.Ranks, Rank{Trust: w.rank[k], ord: ord})
		w.slot[ord] = 0
	}
	sortRanks(out.Ranks, adj.Community().Agents())

	if known {
		w.slot[nb.Source] = 0
	}
	for _, r := range nb.Ranks {
		w.slot[r.ord] = 0
	}
	w.joined, w.rank = w.joined[:0], w.rank[:0]
	wideningPool.Put(w)
	return out
}

// widening is the pooled state of one WidenOneHop call. slot, which maps
// an agent ordinal to what the call knows of it, is the only table sized
// by the community; it is zero between calls (the call re-zeroes exactly
// the entries it marked), so a pooled widening starts in O(1) whatever
// the community size — as the Appleseed walk does.
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
