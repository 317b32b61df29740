package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/model"
)

// E11Row is one diversification-factor measurement.
type E11Row struct {
	Theta    float64
	HitRate  float64 // held-out item in the diversified top-10
	MeanILS  float64 // mean intra-list similarity of the served lists
	Coverage float64 // fraction of the catalog ever recommended
}

// E11Result is the θ sweep.
type E11Result struct {
	Rows   []E11Row
	Trials int
}

// E11 measures taxonomy-driven topic diversification — the direct
// continuation of the paper's taxonomy program (Ziegler et al., WWW
// 2005): candidates from the hybrid pipeline are re-ranked with
// diversification factor θ, trading a little accuracy for lower
// intra-list similarity and broader catalog coverage.
func E11(w io.Writer, p Params) (E11Result, error) {
	section(w, "E11", "topic diversification: accuracy vs diversity vs coverage")
	cfg := p.Config()
	cfg.ClusterFidelity = 0.9
	comm, _ := datagen.Generate(cfg)
	const topN, candidates = 10, 50
	trials := 60
	if p.Scale == "paper" {
		trials = 150
	}

	// Sample the evaluation agents once so every θ sees the same trials.
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	agents := append([]model.AgentID(nil), comm.Agents()...)
	rng.Shuffle(len(agents), func(i, j int) { agents[i], agents[j] = agents[j], agents[i] })

	type trial struct {
		agent model.AgentID
		held  model.ProductID
	}
	var trialSet []trial
	for _, id := range agents {
		if len(trialSet) >= trials {
			break
		}
		var liked []model.ProductID
		for _, e := range comm.Agent(id).PositiveRatings() {
			liked = append(liked, comm.Products()[e.Ord])
		}
		if len(liked) < 2 {
			continue
		}
		sort.Slice(liked, func(i, j int) bool { return liked[i] < liked[j] })
		trialSet = append(trialSet, trial{agent: id, held: liked[rng.Intn(len(liked))]})
	}
	res := E11Result{Trials: len(trialSet)}
	if len(trialSet) == 0 {
		return res, fmt.Errorf("e11: no evaluable agents")
	}

	t := newTable(w, "theta", "hit rate", "mean ILS", "catalog coverage")
	for _, theta := range []float64{0, 0.3, 0.6, 0.9} {
		hits := 0
		var ilsSum float64
		served := map[model.ProductID]bool{}
		for _, tr := range trialSet {
			heldVal, _ := comm.Rating(tr.agent, tr.held)
			comm.DeleteRating(tr.agent, tr.held)
			restore := func() {
				if err := comm.SetRating(tr.agent, tr.held, heldVal); err != nil {
					panic(err) // stated before, so in range and cataloged
				}
			}
			rec, err := core.New(comm, core.Options{
				CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
			})
			if err != nil {
				restore()
				return res, err
			}
			cands, err := rec.Recommend(tr.agent, candidates)
			if err != nil {
				restore()
				return res, err
			}
			list := rec.Diversify(cands, topN, theta)
			restore()

			for _, rc := range list {
				served[rc.Product] = true
				if rc.Product == tr.held {
					hits++
				}
			}
			ilsSum += rec.IntraListSimilarity(list)
		}
		row := E11Row{
			Theta:    theta,
			HitRate:  float64(hits) / float64(len(trialSet)),
			MeanILS:  ilsSum / float64(len(trialSet)),
			Coverage: float64(len(served)) / float64(comm.NumProducts()),
		}
		res.Rows = append(res.Rows, row)
		t.row(fmt.Sprintf("%.1f", theta), pct(row.HitRate), f3(row.MeanILS), pct(row.Coverage))
	}
	t.flush()
	fmt.Fprintln(w, "expected shape (WWW'05): intra-list similarity falls monotonically with")
	fmt.Fprintln(w, "theta; moderate theta widens catalog coverage at a gentle accuracy cost;")
	fmt.Fprintln(w, "extreme theta re-focuses on outlier items (the reason WWW'05 caps Θ≈0.4).")
	return res, nil
}
