package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"swrec/internal/cf"
	"swrec/internal/datagen"
	"swrec/internal/eval"
	"swrec/internal/trust"
)

// E2Row is one fidelity point of the trust↔similarity correlation sweep.
type E2Row struct {
	Fidelity         float64
	TrustedMean      float64 // mean similarity of directly trusting pairs
	NeighborhoodMean float64 // mean similarity within Appleseed neighborhoods
	RandomMean       float64 // mean similarity of random pairs
	Gap              float64 // TrustedMean - RandomMean
}

// E2Result is the full sweep.
type E2Result struct {
	Rows []E2Row
	// GapAtHighFidelity is the gap of the last (highest-fidelity) row —
	// the headline number that must be positive for the paper's argument.
	GapAtHighFidelity float64
}

// E2 validates the §3.2 claim that "trust and interest profiles tend to
// correlate" [5]: for increasing cluster fidelity, the mean taxonomy-
// profile similarity of (a) directly trusting pairs and (b) Appleseed
// trust neighborhoods is compared against random pairs.
func E2(w io.Writer, p Params) (E2Result, error) {
	section(w, "E2", "trust <-> profile similarity correlation (claim of [5], §3.2)")
	fidelities := []float64{0.0, 0.25, 0.5, 0.75, 0.95}
	var res E2Result
	t := newTable(w, "fidelity", "sim(trusted)", "sim(appleseed-nbhd)", "sim(random)", "gap")
	for _, fid := range fidelities {
		cfg := p.Config()
		cfg.ClusterFidelity = fid
		comm, _ := datagen.Generate(cfg)
		f, err := cf.New(comm, cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy})
		if err != nil {
			return res, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		gap := eval.TrustVsRandomSimilarity(comm, f, 400, rng)

		// Appleseed-neighborhood similarity: for sampled sources, the
		// mean similarity over the top-20 neighborhood members.
		adj := comm.Adjacency()
		agents := comm.Agents()
		var nbSum float64
		var nbN int
		for i := 0; i < 25 && i < len(agents); i++ {
			src := agents[rng.Intn(len(agents))]
			nb, err := trust.Appleseed(context.Background(), adj, comm.Agent(src).Ord(), trust.AppleseedOptions{MaxNodes: 200}, nil)
			if err != nil {
				return res, err
			}
			for _, r := range nb.Top(20) {
				if s, ok := f.Similarity(src, agents[r.Ord()]); ok {
					nbSum += s
					nbN++
				}
			}
		}
		nbMean := 0.0
		if nbN > 0 {
			nbMean = nbSum / float64(nbN)
		}

		row := E2Row{
			Fidelity:         fid,
			TrustedMean:      gap.TrustedMean,
			NeighborhoodMean: nbMean,
			RandomMean:       gap.RandomMean,
			Gap:              gap.Gap(),
		}
		res.Rows = append(res.Rows, row)
		t.row(fmt.Sprintf("%.2f", fid), f3(row.TrustedMean), f3(row.NeighborhoodMean),
			f3(row.RandomMean), f3(row.Gap))
	}
	t.flush()
	res.GapAtHighFidelity = res.Rows[len(res.Rows)-1].Gap
	fmt.Fprintf(w, "expected shape: gap grows with fidelity; at 0.95 the gap is %s\n",
		f3(res.GapAtHighFidelity))
	return res, nil
}
