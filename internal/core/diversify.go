package core

// Topic diversification: the natural continuation of the paper's
// taxonomy machinery (published by the same author as "Improving
// Recommendation Lists Through Topic Diversification", WWW 2005).
// Recommendation lists assembled purely by vote score tend to cluster in
// one taxonomy branch; diversification re-ranks the candidates to balance
// accuracy against intra-list similarity, using the taxonomy itself as
// the item-to-item similarity measure.

import (
	"sort"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
)

// items compiles product descriptor rows — internal/profile's Eq. 3 loop
// run over one product with s = 1, the item-space counterpart of an agent
// profile — into one gatherer, and holds the scratch their cosines run
// on. It serves one call and is not safe for concurrent use. Without a
// taxonomy every row is empty and every similarity undefined.
type items struct {
	st *profile.Streamer
	g  *profmat.Gatherer
	sc *profmat.Scratch
}

func (r *Recommender) newItems() *items {
	it := &items{}
	dims := 0
	if r.gen != nil {
		it.st = r.gen.NewStreamer()
		dims = r.gen.Taxonomy().Len()
	}
	it.g, it.sc = profmat.NewGatherer(dims, 0), profmat.NewScratch(dims)
	return it
}

// row returns p's descriptor row; a nil product's is empty.
func (it *items) row(p *model.Product) profmat.Row {
	if p != nil && it.st != nil {
		it.st.ProductDense(p, it.g)
	}
	return it.g.Gather()
}

// rows returns the descriptor rows of the listed products.
func (r *Recommender) rows(it *items, recs []Recommendation) []profmat.Row {
	out := make([]profmat.Row, len(recs))
	for i, rec := range recs {
		out[i] = it.row(r.comm.Product(rec.Product))
	}
	return out
}

// affinity returns the cosine of the loaded row and b in [0,1] —
// negative cosines count as no affinity — and whether it is defined.
func (it *items) affinity(b *profmat.Row) (float64, bool) {
	s, ok := it.sc.CosineTo(b)
	return max(s, 0), ok
}

// ProductSimilarity returns the taxonomy-driven similarity of two
// products in [0,1] (cosine of their descriptor rows); ok is false when
// either product lacks descriptors or the community carries no taxonomy.
func (r *Recommender) ProductSimilarity(a, b model.ProductID) (float64, bool) {
	it := r.newItems()
	ra, rb := it.row(r.comm.Product(a)), it.row(r.comm.Product(b))
	it.sc.Load(&ra)
	return it.affinity(&rb)
}

// IntraListSimilarity is the mean pairwise product similarity of a
// recommendation list — the diversity (inverse) measure the θ sweep of
// experiment E11 reports. Lists with fewer than two comparable items
// score 0.
func (r *Recommender) IntraListSimilarity(recs []Recommendation) float64 {
	it := r.newItems()
	vecs := r.rows(it, recs)
	var sum float64
	var n int
	for i := range vecs {
		it.sc.Load(&vecs[i])
		for j := i + 1; j < len(vecs); j++ {
			if s, ok := it.affinity(&vecs[j]); ok {
				sum += s
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Diversify re-ranks the candidate list (sorted by descending score, as
// Recommend returns it) into a top-n list balancing accuracy and topic
// diversity. theta ∈ [0,1] is the diversification factor: 0 returns the
// accuracy ordering unchanged, larger values weigh dissimilarity to the
// already-selected items more. The greedy merge follows the WWW'05
// scheme: at each position, every remaining candidate is ranked once by
// its original position P and once by its dissimilarity to the chosen
// prefix Pd, and the candidate minimizing (1-theta)·P + theta·Pd wins.
func (r *Recommender) Diversify(recs []Recommendation, n int, theta float64) []Recommendation {
	if n <= 0 || n > len(recs) {
		n = len(recs)
	}
	if len(recs) == 0 || theta <= 0 {
		return append([]Recommendation(nil), recs[:n]...)
	}
	if theta > 1 {
		theta = 1
	}

	// Every cosine sums in key order, so equal candidates tie exactly and
	// the same call returns the same list every time.
	it := r.newItems()
	vecs := r.rows(it, recs)

	out := make([]Recommendation, 0, n)
	chosen := make([]int, 0, n)
	remaining := make([]int, 0, len(recs)-1)
	out = append(out, recs[0]) // the top candidate always leads
	chosen = append(chosen, 0)
	for i := 1; i < len(recs); i++ {
		remaining = append(remaining, i)
	}

	// simToChosen accumulates Σ sim(candidate, chosen) incrementally.
	simToChosen := make([]float64, len(recs))
	for len(out) < n && len(remaining) > 0 {
		it.sc.Load(&vecs[chosen[len(chosen)-1]])
		for _, c := range remaining {
			if s, ok := it.affinity(&vecs[c]); ok {
				simToChosen[c] += s
			}
		}
		// Dissimilarity rank: ascending accumulated similarity.
		byDissim := append([]int(nil), remaining...)
		sort.Slice(byDissim, func(a, b int) bool {
			if simToChosen[byDissim[a]] != simToChosen[byDissim[b]] {
				return simToChosen[byDissim[a]] < simToChosen[byDissim[b]]
			}
			return byDissim[a] < byDissim[b] // accuracy order breaks ties
		})
		dissimRank := make(map[int]int, len(byDissim))
		for rank, c := range byDissim {
			dissimRank[c] = rank
		}
		best, bestScore := -1, 0.0
		for pos, c := range remaining {
			// remaining stays in accuracy order, so pos is P's rank among
			// the survivors.
			merged := (1-theta)*float64(pos) + theta*float64(dissimRank[c])
			if best == -1 || merged < bestScore ||
				(merged == bestScore && recs[c].Product < recs[best].Product) {
				best, bestScore = c, merged
			}
		}
		out = append(out, recs[best])
		chosen = append(chosen, best)
		for i, c := range remaining {
			if c == best {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return out
}
