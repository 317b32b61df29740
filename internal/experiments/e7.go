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
)

// E7Row is one strategy's leave-one-out accuracy.
type E7Row struct {
	Strategy string
	Trials   int
	HitRate  float64
	MeanRank float64
}

// E7Result is the strategy comparison plus the α sweep and the
// precision/recall curve of the default hybrid, beside the curve of the
// same hybrid with the whole community in range.
type E7Result struct {
	Strategies []E7Row
	AlphaSweep []E7Row // strategy column holds the α value
	PR         []eval.PRPoint
	PRWhole    []eval.PRPoint
	// RandomBaseline is the analytic expected hit rate of random top-N
	// picks, for reference.
	RandomBaseline float64
}

// E7 implements the quantitative analysis the paper announces for §3.4:
// the rank synthesization alternatives compared via leave-one-out top-N
// hit rate — the hybrid blend against pure trust, pure similarity, and a
// random baseline, plus the α sweep.
func E7(w io.Writer, p Params) (E7Result, error) {
	section(w, "E7", "rank synthesization quality: leave-one-out hit rate (§3.4)")
	const topN = 20
	cfg := p.Config()
	comm, _ := datagen.Generate(cfg)
	trials := 60
	if p.Scale == "paper" {
		trials = 200
	}

	var res E7Result
	res.RandomBaseline = float64(topN) / float64(cfg.Products)

	run := func(label string, opt core.Options, seed int64) (E7Row, error) {
		factory := func(c *model.Community) (*core.Recommender, error) {
			return core.New(c, opt)
		}
		r, err := eval.LeaveOneOut(comm, factory, topN, trials, rand.New(rand.NewSource(seed)))
		if err != nil {
			return E7Row{}, fmt.Errorf("e7 %s: %w", label, err)
		}
		return E7Row{Strategy: label, Trials: r.Trials, HitRate: r.HitRate, MeanRank: r.MeanRank}, nil
	}
	taxCF := cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}
	// The hybrid rows run the serving defaults (bounded range, floor, M);
	// the whole-range row beside the first is the same pipeline with the
	// bounds stated wide enough never to bind, and the no-trust rows keep
	// every agent they scan.
	n := comm.NumAgents()

	strategies := []struct {
		label string
		opt   core.Options
	}{
		{"hybrid a=0.5 (appleseed+cf)", core.Options{CF: taxCF}},
		{"hybrid a=0.5, whole range", wholeRange(core.Options{CF: taxCF}, n)},
		{"pure trust a=1", core.Options{Alpha: 1, CF: taxCF}},
		{"pure CF (no trust filter)", wholeRange(core.Options{Metric: core.NoTrust, AlphaSet: true, CF: taxCF}, n)},
		{"product-vector CF", wholeRange(core.Options{Metric: core.NoTrust, AlphaSet: true,
			CF: cf.Options{Measure: cf.Pearson, Representation: cf.Product}}, n)},
		{"hybrid + content boost b=1", core.Options{CF: taxCF, ContentBoost: 1}},
		{"hybrid, borda merge", core.Options{CF: taxCF, Merge: core.BordaCount}},
	}
	t := newTable(w, "strategy", "trials", "hit rate", "mean hit rank")
	for _, s := range strategies {
		row, err := run(s.label, s.opt, cfg.Seed+101)
		if err != nil {
			return res, err
		}
		res.Strategies = append(res.Strategies, row)
		t.row(row.Strategy, row.Trials, pct(row.HitRate), f3(row.MeanRank))
	}
	t.row("random baseline", "-", pct(res.RandomBaseline), "-")
	t.flush()

	fmt.Fprintln(w, "\nblend sweep (hybrid, Appleseed + taxonomy-cosine):")
	t2 := newTable(w, "alpha", "hit rate")
	for _, a := range []float64{0, 0.25, 0.5, 0.75, 1} {
		row, err := run(fmt.Sprintf("%.2f", a),
			core.Options{Alpha: a, AlphaSet: true, CF: taxCF}, cfg.Seed+101)
		if err != nil {
			return res, err
		}
		res.AlphaSweep = append(res.AlphaSweep, row)
		t2.row(row.Strategy, pct(row.HitRate))
	}
	t2.flush()

	// Precision/recall curve of the default hybrid (multi-item holdout),
	// beside the whole-range hybrid's over the same trials.
	fmt.Fprintln(w, "\nprecision/recall at N (hybrid, half of liked items withheld; whole range beside the defaults):")
	prFactory := func(c *model.Community) ([]*core.Recommender, error) {
		def, err := core.New(c, core.Options{CF: taxCF})
		if err != nil {
			return nil, err
		}
		whole, err := def.WithOptions(wholeRange(core.Options{CF: taxCF}, n))
		return []*core.Recommender{def, whole}, err
	}
	pts, err := eval.PrecisionRecallEach(comm, prFactory, []int{5, 10, 20, 50},
		trials, rand.New(rand.NewSource(cfg.Seed+202)))
	if err != nil {
		return res, err
	}
	res.PR, res.PRWhole = pts[0], pts[1]
	t3 := newTable(w, "N", "precision", "recall", "F1", "whole-range precision", "recall", "F1")
	for i, pt := range res.PR {
		wh := res.PRWhole[i]
		t3.row(pt.N, pct(pt.Precision), pct(pt.Recall), f3(pt.F1), pct(wh.Precision), pct(wh.Recall), f3(wh.F1))
	}
	t3.flush()
	fmt.Fprintln(w, "expected shape: every strategy beats random; the hybrid is at least as")
	fmt.Fprintln(w, "good as the weaker pure strategy; alpha extremes match the pure rows.")
	return res, nil
}
