package strategy

import (
	"slices"

	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// PopularityRank scores every product of the community by its total
// positive rating mass — the agent-independent vote the popularity rung
// serves when neither trust nor similarity can personalize (§2's
// cold-start agents). Score is the sum of positive rating values,
// Supporters the count of positive raters; products nobody likes are
// absent. Sorted by descending score, ties by product ID. The ranking
// depends only on the community, so engines compute it once per
// snapshot.
func PopularityRank(comm *model.Community) []core.Recommendation {
	scores := make([]float64, comm.NumProducts())
	supp := make([]int, comm.NumProducts())
	for _, id := range comm.Agents() {
		a := comm.Agent(id)
		if a == nil {
			continue
		}
		for _, e := range a.PositiveRatings() {
			scores[e.Ord] += e.Val
			supp[e.Ord]++
		}
	}
	out := make([]core.Recommendation, 0, len(supp))
	for o, pid := range comm.Products() {
		if supp[o] == 0 {
			continue
		}
		out = append(out, core.Recommendation{Product: pid, Score: scores[o], Supporters: supp[o]})
	}
	slices.SortFunc(out, core.CompareRecommendations)
	return out
}

// PopularityFor personalizes a popularity ranking for the active agent:
// products the agent already rated are dropped, and — when the community
// carries a taxonomy — products whose every descriptor lies in a
// category the agent "has left untouched until now" are stably moved to
// the front, implementing §3.4's content-driven incentive for trying new
// product groups. For a zero-rating cold-start agent every category is
// untouched, so the result degenerates to pure popularity. Returns at
// most n entries (all when n <= 0).
func PopularityFor(comm *model.Community, rank []core.Recommendation, active *model.Agent, n int) []core.Recommendation {
	if active == nil {
		return nil
	}
	var touched map[taxonomy.Topic]bool // nil without a taxonomy: no partition
	if comm.Taxonomy() != nil {
		touched = core.TouchedTopics(comm, active)
	}
	novel := make([]core.Recommendation, 0, len(rank))
	var rest []core.Recommendation
	rated := active.RatedProducts()
	for _, rec := range rank {
		p := comm.Product(rec.Product)
		if _, ok := rated.Find(p.Ord()); ok {
			continue
		}
		if touched != nil && core.IsNovel(p, touched) {
			novel = append(novel, rec)
		} else {
			rest = append(rest, rec)
		}
		if n > 0 && len(novel) >= n {
			break // the front partition alone already fills the page
		}
	}
	out := append(novel, rest...)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
