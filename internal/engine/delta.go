package engine

import (
	"slices"

	"swrec/internal/model"
)

// Delta describes what changed between the community a snapshot currently
// serves and the community about to be published — the write path's
// summary of its applied mutation batch. SwapDelta uses it to carry every
// cache entry whose dependency fingerprint is untouched into the new
// epoch instead of starting cold.
//
// The fingerprint rule, per cached artifact:
//
//   - a compiled profile row depends on the agent's own ratings (the
//     taxonomy, product topics and product ordinals are immutable under
//     ingest — rating an uncataloged product registers a bare, topic-less
//     entry that contributes nothing to any taxonomy profile);
//   - a cached trust neighborhood depends on the trust statements of
//     every agent its exploration can reach (any forward trust path from
//     the active agent), plus the profiles of the active agent and every
//     ranked peer (the similarity weights);
//   - a cached recommendation list depends on its neighborhood plus the
//     ranked peers' ratings — and a carried neighborhood already implies
//     no ranked peer's ratings changed, so a result entry is valid
//     exactly when its neighborhood entry is;
//   - the topic index depends only on the catalog;
//   - the trust-out agent directory ordering depends on the agent set
//     and every out-degree.
//
// Agents are identified by their community ordinals, resolved against
// the community being published: ordinals are stable across epochs of
// one lineage (communities only append), so an ordinal marked here
// denotes the same agent in the superseded epoch's caches. All fields
// are conservative: over-marking costs recomputation, never correctness.
// A nil *Delta means "assume everything changed".
type Delta struct {
	// RatingsChanged holds ordinals of agents whose rating set changed
	// (upserts and deletes alike).
	RatingsChanged map[int32]bool
	// TrustChanged holds ordinals of agents whose outgoing trust
	// statements changed.
	TrustChanged map[int32]bool
	// AgentsAdded reports whether any agent record was created (directly
	// or materialized as a trust/rating endpoint).
	AgentsAdded bool
	// ProductsChanged reports whether the catalog gained entries.
	ProductsChanged bool
}

// NewDelta returns an empty delta ready for marking.
func NewDelta() *Delta {
	return &Delta{
		RatingsChanged: make(map[int32]bool),
		TrustChanged:   make(map[int32]bool),
	}
}

// trustDirtySet expands the trust-mutation source ordinals to every agent
// whose neighborhood exploration could observe one of them: a
// neighborhood is computed by walking trust edges forward from its active
// agent, so an agent is affected exactly when a forward path from it
// reaches a source. That is a reverse-BFS from the sources, taken over
// the union of the old and new trust graphs — an edge present in either
// generation can have carried the influence.
//
// The superseded snapshot's compiled trust CSR is all of that union the
// search needs: the two graphs differ only in the out-rows of the sources
// themselves (an agent whose statements changed is a source by the Delta
// contract), and a reverse step along a source's out-edge arrives at the
// source, which is dirty from the start. The CSR is transposed by one
// counting sort into flat arrays.
//
// The returned vector is indexed by agent ordinal and covers n ordinals —
// the new generation's space, which extends the old one; nil means no
// sources, i.e. nothing is trust-dirty.
func trustDirtySet(prev *model.Adjacency, n int, sources map[int32]bool) []bool {
	if len(sources) == 0 {
		return nil
	}
	old := prev.Trust()
	n = max(n, prev.NumAgents())

	// rev[revOff[t]:revOff[t+1]] lists the agents stating trust in t.
	revOff := make([]int32, n+1)
	for _, t := range old.Idx {
		revOff[t+1]++
	}
	for t := 0; t < n; t++ {
		revOff[t+1] += revOff[t]
	}
	rev := make([]int32, len(old.Idx))
	next := slices.Clone(revOff[:n])
	for u := int32(0); int(u) < prev.NumAgents(); u++ {
		targets, _ := old.Row(u)
		for _, t := range targets {
			rev[next[t]] = u
			next[t]++
		}
	}

	dirty := make([]bool, n)
	queue := make([]int32, 0, len(sources))
	for s := range sources {
		if int(s) < n && !dirty[s] {
			dirty[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, p := range rev[revOff[x]:revOff[x+1]] {
			if !dirty[p] {
				dirty[p] = true
				queue = append(queue, p)
			}
		}
	}
	return dirty
}
