package core

import (
	"context"
	"slices"
	"sync"

	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// acc accumulates one candidate product's vote.
type acc struct {
	prod       int32 // product ordinal
	supporters int32
	score      float64
}

// voteScratch is the stage-4 state of one RecommendFromCtx call. votes is
// indexed by product ordinal and all-zero between calls (release re-zeroes
// exactly the touched entries); accs has room for every product, so the
// scan never grows it.
type voteScratch struct {
	votes []int32
	accs  []acc
	n     int     // accumulators in use
	rated []int32 // ordinals holding the active agent's -1 sentinels
	rows  []model.Row
}

var votePool sync.Pool

// getVoteScratch returns a zeroed scratch covering n product ordinals.
func getVoteScratch(n int) *voteScratch {
	if vs, ok := votePool.Get().(*voteScratch); ok && len(vs.votes) >= n {
		return vs
	}
	return &voteScratch{votes: make([]int32, n), accs: make([]acc, n)}
}

// release re-zeroes the vote table and returns the scratch to the pool.
func (vs *voteScratch) release() {
	for _, a := range vs.accs[:vs.n] {
		vs.votes[a.prod] = 0
	}
	for _, o := range vs.rated {
		vs.votes[o] = 0
	}
	clear(vs.rows) // a pooled scratch pins no community
	vs.n, vs.rated = 0, vs.rated[:0]
	votePool.Put(vs)
}

// readRows fills rows with the rating row of every peer that votes, and
// an empty one for every other, in peer order. Read ahead of the scan,
// the records' loads are independent, so they overlap instead of each
// stalling it.
func (vs *voteScratch) readRows(adj *model.Adjacency, peers []PeerRank) {
	vs.rows = vs.rows[:0]
	for i := range peers {
		var row model.Row
		if p := &peers[i]; p.Weight > 0 && p.ord != 0 {
			row = adj.Ratings(p.ord - 1)
		}
		vs.rows = append(vs.rows, row)
	}
}

// vote is the stage-4 scan: every peer with a positive rank weight votes
// for its appreciated products, one linear pass over the positive prefix
// of its rating row, which vs.readRows has read. Accumulators are created
// in first-vote order and each product's score sums its supporters in
// peer order. Checks ctx at 16-peer boundaries.
//
//swrec:hotpath
func (r *Recommender) vote(ctx context.Context, vs *voteScratch, peers []PeerRank, touched map[taxonomy.Topic]bool) error {
	votes, accs, n, rows := vs.votes, vs.accs, 0, vs.rows
	for i := range peers {
		if i&15 == 0 {
			if err := ctx.Err(); err != nil {
				vs.n = n
				return err
			}
		}
		p := &peers[i]
		for _, e := range rows[i] { // empty: no weight, or no agent of this community
			if e.Val <= 0 {
				break // positive ratings are a prefix of the row
			}
			o := e.Ord
			ai := votes[o]
			if ai < 0 {
				continue // active already rated it (sentinel)
			}
			if touched != nil && !IsNovel(r.adj.Product(o), touched) {
				continue
			}
			if ai == 0 {
				accs[n] = acc{prod: o}
				n++
				ai = int32(n)
				votes[o] = ai
			}
			accs[ai-1].score += float64(p.Weight * e.Val)
			accs[ai-1].supporters++
		}
	}
	vs.n = n
	return nil
}

// CompareRecommendations is the answer order: descending score, ties by
// ascending product ID — a strict total order over distinct products.
func CompareRecommendations(a, b Recommendation) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Product < b.Product:
		return -1
	case a.Product > b.Product:
		return 1
	default:
		return 0
	}
}

// selectTop fills out with the len(out) best candidates in answer order;
// len(out) must not exceed len(cands). When fewer than all are wanted it
// keeps a bounded heap in out (worst kept candidate at the root) instead
// of sorting every candidate, and resolves a product's ID only for
// candidates that can still displace the root. The order is strict, so
// the result equals the prefix of the full sort.
func selectTop(adj *model.Adjacency, cands []acc, out []Recommendation) {
	k := len(out)
	if k == 0 {
		return
	}
	rec := func(c acc) Recommendation {
		return Recommendation{Product: adj.Product(c.prod).ID, Score: c.score, Supporters: int(c.supporters)}
	}
	if k == len(cands) {
		for i, c := range cands {
			out[i] = rec(c)
		}
		slices.SortFunc(out, CompareRecommendations)
		return
	}
	worse := func(i, j int) bool { return CompareRecommendations(out[i], out[j]) > 0 }
	for i, c := range cands[:k] { // heapify the first k by sifting each up
		out[i] = rec(c)
		for j := i; j > 0 && worse(j, (j-1)/2); j = (j - 1) / 2 {
			out[j], out[(j-1)/2] = out[(j-1)/2], out[j]
		}
	}
	for _, c := range cands[k:] {
		if c.score < out[0].Score {
			continue
		}
		r := rec(c)
		if CompareRecommendations(r, out[0]) >= 0 {
			continue
		}
		out[0] = r // displace the root and sift it down
		for i := 0; ; {
			w := i
			if l := 2*i + 1; l < k && worse(l, w) {
				w = l
			}
			if r := 2*i + 2; r < k && worse(r, w) {
				w = r
			}
			if w == i {
				break
			}
			out[i], out[w] = out[w], out[i]
			i = w
		}
	}
	slices.SortFunc(out, CompareRecommendations)
}
