package core

// Topic diversification: the natural continuation of the paper's
// taxonomy machinery (published by the same author as "Improving
// Recommendation Lists Through Topic Diversification", WWW 2005).
// Recommendation lists assembled purely by vote score tend to cluster in
// one taxonomy branch; diversification re-ranks the candidates to balance
// accuracy against intra-list similarity, using the taxonomy itself as
// the item-to-item similarity measure.

import (
	"cmp"
	"slices"
	"sync"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
)

// descriptors is the item space every WithOptions variant shares: the
// product × topic matrix of descriptor rows, built on first use, and a
// pool of the scratch its rows are compared on. A community without a
// taxonomy has none (nil): every product similarity is undefined.
type descriptors struct {
	mat  func() *profmat.Matrix
	pool *sync.Pool // *rowScratch, put back unloaded and reset
}

// rowScratch is what one comparing call runs on; content boost writes
// the active agent's profile with st into g.
type rowScratch struct {
	sc *profmat.Scratch
	g  *profmat.Gatherer
	st *profile.Streamer
}

func newDescriptors(comm *model.Community) *descriptors {
	tax := comm.Taxonomy()
	if tax == nil {
		return nil
	}
	gen := profile.New(tax)
	return &descriptors{
		mat: sync.OnceValue(func() *profmat.Matrix { return gen.ProductMatrix(comm) }),
		pool: &sync.Pool{New: func() any {
			return &rowScratch{profmat.NewScratch(tax.Len()), profmat.NewGatherer(tax.Len(), 0), gen.NewStreamer()}
		}},
	}
}

func (d *descriptors) get() *rowScratch { return d.pool.Get().(*rowScratch) }

func (d *descriptors) put(s *rowScratch) {
	s.sc.Unload()
	s.g.Reset()
	d.pool.Put(s)
}

// row returns p's descriptor row, an empty row for a nil product or one
// the matrix does not hold.
func (d *descriptors) row(p *model.Product) *profmat.Row {
	if p != nil {
		if row := d.mat().Row(p.Ord()); row != nil {
			return row
		}
	}
	return new(profmat.Row)
}

// listRows returns the descriptor rows of the listed products.
func (r *Recommender) listRows(recs []Recommendation) []*profmat.Row {
	out := make([]*profmat.Row, len(recs))
	for i, rec := range recs {
		out[i] = r.desc.row(r.comm.Product(rec.Product))
	}
	return out
}

// affinity returns the cosine of sc's loaded row and b in [0,1] —
// negative cosines count as no affinity — and whether it is defined.
func affinity(sc *profmat.Scratch, b *profmat.Row) (float64, bool) {
	s, ok := sc.CosineTo(b)
	return max(s, 0), ok
}

// ProductSimilarity returns the taxonomy-driven similarity of two
// products in [0,1] (cosine of their descriptor rows); ok is false when
// either product lacks descriptors or the community carries no taxonomy.
func (r *Recommender) ProductSimilarity(a, b model.ProductID) (float64, bool) {
	if r.desc == nil {
		return 0, false
	}
	s := r.desc.get()
	defer r.desc.put(s)
	s.sc.Load(r.desc.row(r.comm.Product(a)))
	return affinity(s.sc, r.desc.row(r.comm.Product(b)))
}

// IntraListSimilarity is the mean pairwise product similarity of a
// recommendation list — the diversity (inverse) measure the θ sweep of
// experiment E11 reports. Lists with fewer than two comparable items
// score 0.
func (r *Recommender) IntraListSimilarity(recs []Recommendation) float64 {
	if r.desc == nil {
		return 0
	}
	rows := r.listRows(recs)
	s := r.desc.get()
	defer r.desc.put(s)
	sum, n := 0.0, 0
	for i := range rows {
		s.sc.Load(rows[i])
		for j := i + 1; j < len(rows); j++ {
			if sim, ok := affinity(s.sc, rows[j]); ok {
				sum += sim
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
	if len(recs) == 0 || theta <= 0 || r.desc == nil { // no taxonomy: no similarity to trade for
		return append([]Recommendation(nil), recs[:n]...)
	}
	theta = min(theta, 1)

	// Every cosine sums in key order, so equal candidates tie exactly and
	// the same call returns the same list every time.
	rows := r.listRows(recs)
	s := r.desc.get()
	defer r.desc.put(s)

	out := make([]Recommendation, 1, n)
	out[0] = recs[0] // the top candidate always leads
	last, remaining := 0, make([]int, 0, len(recs)-1)
	for i := 1; i < len(recs); i++ {
		remaining = append(remaining, i)
	}

	// simToChosen accumulates Σ sim(candidate, chosen) incrementally.
	simToChosen := make([]float64, len(recs))
	byDissim, dissimRank := make([]int, 0, len(remaining)), make([]int, len(recs))
	for len(out) < n && len(remaining) > 0 {
		s.sc.Load(rows[last])
		for _, c := range remaining {
			if sim, ok := affinity(s.sc, rows[c]); ok {
				simToChosen[c] += sim
			}
		}
		// Dissimilarity rank: ascending accumulated similarity, ties in
		// accuracy order (remaining's order, which the stable sort keeps).
		byDissim = append(byDissim[:0], remaining...)
		slices.SortStableFunc(byDissim, func(a, b int) int { return cmp.Compare(simToChosen[a], simToChosen[b]) })
		for rank, c := range byDissim {
			dissimRank[c] = rank
		}
		best, bestScore := -1, 0.0
		for pos, c := range remaining {
			// remaining stays in accuracy order, so pos is P's rank among
			// the survivors.
			merged := float64((1-theta)*float64(pos)) + float64(theta*float64(dissimRank[c]))
			if best == -1 || merged < bestScore ||
				(merged == bestScore && recs[c].Product < recs[best].Product) {
				best, bestScore = c, merged
			}
		}
		out = append(out, recs[best])
		last = best
		remaining = slices.DeleteFunc(remaining, func(c int) bool { return c == best })
	}
	return out
}
