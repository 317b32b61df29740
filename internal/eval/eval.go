// Package eval is the quantitative harness behind the experiments of
// DESIGN.md: trust↔similarity correlation measurement (E2), leave-one-out
// recommendation accuracy (E7), attack exposure (E4), profile-overlap
// statistics (E5), and the rank-correlation coefficients used to compare
// trust and similarity orderings. The paper announces exactly this kind of
// framework in §3.4 ("matching these approaches against each other within
// an experimental framework allowing for some quantitative analysis").
package eval

// The leave-one-out harnesses below hide a rating, run the recommender,
// and restore the rating before returning — an in-place mutate-and-
// restore on a community the harness owns for offline measurement.
//
//swrecvet:disable snapshotfreeze -- leave-one-out holdout mutates a harness-owned offline community and restores it before returning; single-threaded, never a swapped snapshot

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/model"
)

// SimilarityGap contrasts the mean profile similarity of trusted pairs
// against random pairs — the measurable form of the §3.2 claim that
// "trust and interest profiles tend to correlate" [5].
type SimilarityGap struct {
	TrustedMean  float64 // mean similarity over sampled direct-trust pairs
	RandomMean   float64 // mean similarity over random agent pairs
	TrustedPairs int     // pairs with defined similarity
	RandomPairs  int
}

// Gap returns TrustedMean - RandomMean.
func (g SimilarityGap) Gap() float64 { return g.TrustedMean - g.RandomMean }

// TrustVsRandomSimilarity samples up to maxPairs directly-trusting pairs
// (positive statements only) and as many random pairs, and reports the
// mean similarity of each population under the given filter.
func TrustVsRandomSimilarity(comm *model.Community, f *cf.Filter, maxPairs int, rng *rand.Rand) SimilarityGap {
	edges := comm.TrustEdges()
	var positive []model.TrustStatement
	for _, e := range edges {
		if e.Value > 0 {
			positive = append(positive, e)
		}
	}
	rng.Shuffle(len(positive), func(i, j int) { positive[i], positive[j] = positive[j], positive[i] })
	if maxPairs > 0 && len(positive) > maxPairs {
		positive = positive[:maxPairs]
	}

	var g SimilarityGap
	var sumT float64
	for _, e := range positive {
		if s, ok := f.Similarity(e.Src, e.Dst); ok {
			sumT += s
			g.TrustedPairs++
		}
	}
	agents := comm.Agents()
	var sumR float64
	for i := 0; i < len(positive); i++ {
		a := agents[rng.Intn(len(agents))]
		b := agents[rng.Intn(len(agents))]
		if a == b {
			continue
		}
		if s, ok := f.Similarity(a, b); ok {
			sumR += s
			g.RandomPairs++
		}
	}
	if g.TrustedPairs > 0 {
		g.TrustedMean = sumT / float64(g.TrustedPairs)
	}
	if g.RandomPairs > 0 {
		g.RandomMean = sumR / float64(g.RandomPairs)
	}
	return g
}

// LOOResult summarizes a leave-one-out run.
type LOOResult struct {
	Trials  int     // agents evaluated
	Hits    int     // held-out item returned within top-N
	HitRate float64 // Hits / Trials
	// MeanRank is the mean 1-based rank of the held-out item when hit.
	MeanRank float64
	// Empty counts trials where the recommender returned nothing.
	Empty int
}

// RecommenderFactory builds a recommender over the (mutated) community for
// each trial. Factories must not cache profiles across calls — leave-one-
// out mutates rating histories between trials.
type RecommenderFactory func(comm *model.Community) (*core.Recommender, error)

// VariantsFactory builds, for each trial, one recommender per pipeline
// variant under comparison (core.Recommender.WithOptions shares the
// trial's compiled state among them). It must return the same number of
// recommenders every call.
type VariantsFactory func(comm *model.Community) ([]*core.Recommender, error)

// single adapts a one-recommender factory.
func single(factory RecommenderFactory) VariantsFactory {
	return func(comm *model.Community) ([]*core.Recommender, error) {
		rec, err := factory(comm)
		return []*core.Recommender{rec}, err
	}
}

// ErrNoTrials is returned when no agent qualifies for leave-one-out.
var ErrNoTrials = errors.New("eval: no agent has enough positive ratings for leave-one-out")

// LeaveOneOut measures top-N hit rate: for up to maxTrials sampled agents
// with at least two positive ratings, one positive rating is withheld, the
// recommender runs, and a hit is scored when the withheld product appears
// in the top N. The community is restored after every trial.
func LeaveOneOut(comm *model.Community, factory RecommenderFactory, topN, maxTrials int, rng *rand.Rand) (LOOResult, error) {
	res, err := LeaveOneOutEach(comm, single(factory), topN, maxTrials, rng)
	if len(res) == 0 {
		return LOOResult{}, err
	}
	return res[0], err
}

// LeaveOneOutEach is LeaveOneOut over several pipeline variants at once:
// every variant answers the same trials, so their results differ by the
// pipeline alone, and a trial's community state is compiled once.
func LeaveOneOutEach(comm *model.Community, factory VariantsFactory, topN, maxTrials int, rng *rand.Rand) ([]LOOResult, error) {
	var results []LOOResult
	var rankSums []int
	agents := append([]model.AgentID(nil), comm.Agents()...)
	rng.Shuffle(len(agents), func(i, j int) { agents[i], agents[j] = agents[j], agents[i] })

	trials := 0
	for _, id := range agents {
		if maxTrials > 0 && trials >= maxTrials {
			break
		}
		a := comm.Agent(id)
		var liked []model.ProductID
		for p, v := range a.Ratings {
			if v > 0 {
				liked = append(liked, p)
			}
		}
		if len(liked) < 2 {
			continue
		}
		sort.Slice(liked, func(i, j int) bool { return liked[i] < liked[j] })
		held := liked[rng.Intn(len(liked))]
		heldVal := a.Ratings[held]
		delete(a.Ratings, held)
		a.MarkDirty()
		restore := func() {
			a.Ratings[held] = heldVal
			a.MarkDirty()
		}

		recs, err := factory(comm)
		if err != nil {
			restore()
			return results, fmt.Errorf("eval: factory: %w", err)
		}
		if results == nil {
			results, rankSums = make([]LOOResult, len(recs)), make([]int, len(recs))
		}
		for v, rec := range recs {
			list, err := rec.Recommend(id, topN)
			if err != nil {
				restore()
				return results, fmt.Errorf("eval: recommend for %s: %w", id, err)
			}
			res := &results[v]
			res.Trials++
			if len(list) == 0 {
				res.Empty++
				continue
			}
			for rank, r := range list {
				if r.Product == held {
					res.Hits++
					rankSums[v] += rank + 1
					break
				}
			}
		}
		restore()
		trials++
	}
	if trials == 0 {
		return results, ErrNoTrials
	}
	for v := range results {
		res := &results[v]
		res.HitRate = float64(res.Hits) / float64(res.Trials)
		if res.Hits > 0 {
			res.MeanRank = float64(rankSums[v]) / float64(res.Hits)
		}
	}
	return results, nil
}

// AttackExposure describes how far an injected product penetrated a
// recommendation list.
type AttackExposure struct {
	Recommended bool
	Rank        int     // 1-based; 0 when not recommended
	Score       float64 // its vote score, 0 when absent
}

// Exposure locates the pushed product in a recommendation list.
func Exposure(recs []core.Recommendation, pushed model.ProductID) AttackExposure {
	for i, r := range recs {
		if r.Product == pushed {
			return AttackExposure{Recommended: true, Rank: i + 1, Score: r.Score}
		}
	}
	return AttackExposure{}
}

// PRPoint is one precision/recall measurement at a list length N.
type PRPoint struct {
	N         int
	Precision float64
	Recall    float64
	F1        float64
}

// PrecisionRecall measures precision/recall/F1 at several list lengths by
// withholding a *set* of positive ratings per sampled agent (half of the
// liked products, at least one) and checking how many return in the
// top-N. Ns must be ascending.
func PrecisionRecall(comm *model.Community, factory RecommenderFactory, ns []int, maxTrials int, rng *rand.Rand) ([]PRPoint, error) {
	res, err := PrecisionRecallEach(comm, single(factory), ns, maxTrials, rng)
	if len(res) == 0 {
		return nil, err
	}
	return res[0], err
}

// PrecisionRecallEach is PrecisionRecall over several pipeline variants
// answering the same trials; see LeaveOneOutEach.
func PrecisionRecallEach(comm *model.Community, factory VariantsFactory, ns []int, maxTrials int, rng *rand.Rand) ([][]PRPoint, error) {
	if len(ns) == 0 {
		return nil, errors.New("eval: no list lengths given")
	}
	maxN := ns[len(ns)-1]
	agents := append([]model.AgentID(nil), comm.Agents()...)
	rng.Shuffle(len(agents), func(i, j int) { agents[i], agents[j] = agents[j], agents[i] })

	// Per variant and list length: Σ per-trial precision and recall.
	var hits, recalls [][]float64
	trials := 0
	for _, id := range agents {
		if maxTrials > 0 && trials >= maxTrials {
			break
		}
		a := comm.Agent(id)
		var liked []model.ProductID
		for p, v := range a.Ratings {
			if v > 0 {
				liked = append(liked, p)
			}
		}
		if len(liked) < 4 {
			continue
		}
		sort.Slice(liked, func(i, j int) bool { return liked[i] < liked[j] })
		rng.Shuffle(len(liked), func(i, j int) { liked[i], liked[j] = liked[j], liked[i] })
		held := liked[:len(liked)/2]
		saved := make(map[model.ProductID]float64, len(held))
		for _, p := range held {
			saved[p] = a.Ratings[p]
			delete(a.Ratings, p)
		}
		a.MarkDirty()
		restore := func() {
			for p, v := range saved {
				a.Ratings[p] = v
			}
			a.MarkDirty()
		}

		recs, err := factory(comm)
		if err != nil {
			restore()
			return nil, fmt.Errorf("eval: factory: %w", err)
		}
		if hits == nil {
			hits, recalls = make([][]float64, len(recs)), make([][]float64, len(recs))
			for v := range recs {
				hits[v], recalls[v] = make([]float64, len(ns)), make([]float64, len(ns))
			}
		}
		for v, rec := range recs {
			list, err := rec.Recommend(id, maxN)
			if err != nil {
				restore()
				return nil, fmt.Errorf("eval: recommend for %s: %w", id, err)
			}
			for ni, n := range ns {
				h := 0
				for i := 0; i < n && i < len(list); i++ {
					if _, ok := saved[list[i].Product]; ok {
						h++
					}
				}
				hits[v][ni] += float64(h) / float64(n)
				recalls[v][ni] += float64(h) / float64(len(held))
			}
		}
		restore()
		trials++
	}
	if trials == 0 {
		return nil, ErrNoTrials
	}
	out := make([][]PRPoint, len(hits))
	for v := range hits {
		out[v] = make([]PRPoint, len(ns))
		for i, n := range ns {
			p := hits[v][i] / float64(trials)
			r := recalls[v][i] / float64(trials)
			f1 := 0.0
			if p+r > 0 {
				f1 = 2 * p * r / (p + r)
			}
			out[v][i] = PRPoint{N: n, Precision: p, Recall: r, F1: f1}
		}
	}
	return out, nil
}

// MeanStd returns the mean and (population) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += float64((x - mean) * (x - mean))
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
