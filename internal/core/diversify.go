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
	"swrec/internal/profmat"
	"swrec/internal/sparse"
)

// productVector returns the product's propagated descriptor vector
// (share 1 split over its descriptors), the item-space counterpart of an
// agent profile.
func (r *Recommender) productVector(id model.ProductID) sparse.Vector {
	p := r.comm.Product(id)
	if p == nil || len(p.Topics) == 0 || r.gen == nil {
		return sparse.New(0)
	}
	v := sparse.New(len(p.Topics) * 8)
	share := 1.0 / float64(len(p.Topics))
	for _, d := range p.Topics {
		r.gen.PropagateLeaf(v, d, share)
	}
	return v
}

// ProductSimilarity returns the taxonomy-driven similarity of two
// products in [0,1] (cosine of propagated descriptor vectors); ok is
// false when either product lacks descriptors or the community carries no
// taxonomy.
func (r *Recommender) ProductSimilarity(a, b model.ProductID) (float64, bool) {
	va, vb := r.productVector(a), r.productVector(b)
	s, ok := sparse.Cosine(va, vb)
	if !ok {
		return 0, false
	}
	if s < 0 {
		s = 0
	}
	return s, true
}

// IntraListSimilarity is the mean pairwise product similarity of a
// recommendation list — the diversity (inverse) measure the θ sweep of
// experiment E11 reports. Lists with fewer than two comparable items
// score 0.
func (r *Recommender) IntraListSimilarity(recs []Recommendation) float64 {
	vecs := make([]sparse.Vector, len(recs))
	for i, rec := range recs {
		vecs[i] = r.productVector(rec.Product)
	}
	var sum float64
	var n int
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			if s, ok := sparse.Cosine(vecs[i], vecs[j]); ok {
				if s < 0 {
					s = 0
				}
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

	// Compiled rows, not the map-backed vectors: their cosine sums in key
	// order, so equal candidates tie exactly and the same call returns the
	// same list every time (a map-ordered sum wobbles in the last bit and
	// flipped near-ties from one request to the next).
	vecs := make([]profmat.Row, len(recs))
	for i, rec := range recs {
		vecs[i] = profmat.FromVector(r.productVector(rec.Product))
	}

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
		last := chosen[len(chosen)-1]
		for _, c := range remaining {
			if s, ok := profmat.Cosine(&vecs[c], &vecs[last]); ok && s > 0 {
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
