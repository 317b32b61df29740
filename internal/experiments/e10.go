package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/eval"
	"swrec/internal/model"
	"swrec/internal/stereotype"
)

// E10Result measures automated stereotype generation (§6 future work).
type E10Result struct {
	// PuritySweep maps K to ground-truth purity.
	PuritySweep []struct {
		K        int
		Purity   float64
		Cohesion float64
	}
	// ChanceLevel is 1/trueClusters, the purity of random assignment.
	ChanceLevel float64
	// Acceleration compares CF restricted to the active agent's
	// stereotype against full-scan CF.
	FullHitRate   float64
	StereoHitRate float64
	FullCand      int // candidates examined by full scan
	StereoCand    int // mean candidates with stereotype restriction
}

// E10 implements the §6 direction "automated stereotype generation and
// efficient behavior modelling": spherical k-means over taxonomy
// profiles. Measured: (a) how well learned stereotypes recover the
// ground-truth interest clusters (purity vs K), and (b) whether
// restricting collaborative filtering to the active agent's stereotype
// retains accuracy while cutting the candidate set — the latency remedy
// category-based filtering [14] targets, rebuilt on taxonomy profiles.
func E10(w io.Writer, p Params) (E10Result, error) {
	section(w, "E10", "automated stereotype generation & behavior modelling (§6)")
	cfg := p.Config()
	cfg.ClusterFidelity = 0.9
	comm, meta := datagen.Generate(cfg)
	profiles := stereotype.Profiles(comm)

	var res E10Result
	res.ChanceLevel = 1.0 / float64(cfg.Clusters)
	t := newTable(w, "K", "purity", "cohesion")
	for _, k := range []int{2, cfg.Clusters / 2, cfg.Clusters, cfg.Clusters * 2} {
		if k < 1 {
			continue
		}
		m, err := stereotype.Learn(comm.Agents(), profiles, stereotype.Options{K: k, Seed: cfg.Seed})
		if err != nil {
			return res, err
		}
		entry := struct {
			K        int
			Purity   float64
			Cohesion float64
		}{k, m.Purity(meta.AgentCluster), m.Cohesion}
		res.PuritySweep = append(res.PuritySweep, entry)
		t.row(k, f3(entry.Purity), f3(entry.Cohesion))
	}
	t.flush()
	fmt.Fprintf(w, "ground truth: %d interest clusters; chance purity = %s\n\n",
		cfg.Clusters, f3(res.ChanceLevel))

	// Acceleration: leave-one-out with stereotype-restricted candidates.
	m, err := stereotype.Learn(comm.Agents(), profiles, stereotype.Options{K: cfg.Clusters, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	trials := 50
	if p.Scale == "paper" {
		trials = 150
	}
	taxCF := cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}

	fullFactory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, wholeRange(core.Options{Metric: core.NoTrust, AlphaSet: true, CF: taxCF}, c.NumAgents()))
	}
	// Both arms keep every candidate they examine (M = N), so the
	// candidates/query column is what votes.
	stereoFactory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, wholeRange(core.Options{
			AlphaSet: true,
			CF:       taxCF,
			Candidates: func(active model.AgentID) []model.AgentID {
				k, ok := m.Assignment[active]
				if !ok {
					return nil
				}
				return m.Members(k)
			},
		}, c.NumAgents()))
	}
	full, err := eval.LeaveOneOut(comm, fullFactory, 20, trials, rand.New(rand.NewSource(cfg.Seed+31)))
	if err != nil {
		return res, err
	}
	stereo, err := eval.LeaveOneOut(comm, stereoFactory, 20, trials, rand.New(rand.NewSource(cfg.Seed+31)))
	if err != nil {
		return res, err
	}
	res.FullHitRate, res.StereoHitRate = full.HitRate, stereo.HitRate
	res.FullCand = comm.NumAgents() - 1
	sizeSum := 0
	for _, s := range m.Sizes {
		sizeSum += s * s // expected own-stereotype size, size-weighted
	}
	res.StereoCand = sizeSum / comm.NumAgents()

	t2 := newTable(w, "pipeline", "hit rate", "candidates/query")
	t2.row("full-scan CF", pct(res.FullHitRate), res.FullCand)
	t2.row("stereotype-restricted CF", pct(res.StereoHitRate), res.StereoCand)
	t2.flush()
	fmt.Fprintln(w, "expected shape: purity peaks near the true cluster count, well above")
	fmt.Fprintln(w, "chance; stereotype restriction keeps most accuracy at a fraction of the")
	fmt.Fprintln(w, "candidate set (efficient behavior modelling).")
	return res, nil
}
