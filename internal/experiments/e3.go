package experiments

import (
	"context"
	"fmt"
	"io"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/trust"
)

// E3Row is one convergence measurement of the Appleseed metric.
type E3Row struct {
	Spreading  float64
	Threshold  float64
	Iterations int
	Neighbors  int
	RankMass   float64 // Σ ranks ≤ injection
	Explored   int
}

// E3Result is the parameter sweep.
type E3Result struct {
	Rows []E3Row
	// Converged reports whether every run stopped before the iteration
	// cap.
	Converged bool
}

// E3 reproduces the Appleseed behavior the paper imports from [12]:
// convergence of spreading activation under decreasing accuracy
// thresholds, for two spreading factors, plus the rank-mass growth per
// iteration (rank mass is monotone and bounded by the injected energy).
func E3(w io.Writer, p Params) (E3Result, error) {
	section(w, "E3", "Appleseed convergence and parameter sweep ([12], §3.2)")
	cfg := p.Config()
	comm, _ := datagen.Generate(cfg)
	adj, ctx := comm.Adjacency(), context.Background()

	// Choose the best-connected agent as source so the sweep exercises a
	// real neighborhood.
	var src model.AgentID
	best := -1
	for _, id := range comm.Agents() {
		if d := len(comm.Agent(id).TrustedPeers()); d > best {
			best = d
			src = id
		}
	}
	fmt.Fprintf(w, "source agent: %s (out-degree %d), injection 200\n", src, best)
	srcOrd := comm.Agent(src).Ord()

	res := E3Result{Converged: true}
	const maxIter = 400
	t := newTable(w, "d", "Tc", "iterations", "neighbors", "rank mass", "explored")
	for _, d := range []float64{0.65, 0.85} {
		for _, tc := range []float64{1.0, 0.1, 0.01, 0.001} {
			nb, err := trust.Appleseed(ctx, adj, srcOrd, trust.AppleseedOptions{
				SpreadingFactor: d,
				Threshold:       tc,
				MaxIterations:   maxIter,
				MaxNodes:        800,
			}, nil)
			if err != nil {
				return res, err
			}
			var mass float64
			for _, r := range nb.Ranks {
				mass += r.Trust
			}
			row := E3Row{
				Spreading:  d,
				Threshold:  tc,
				Iterations: nb.Iterations,
				Neighbors:  len(nb.Ranks),
				RankMass:   mass,
				Explored:   nb.Explored,
			}
			if nb.Iterations >= maxIter {
				res.Converged = false
			}
			res.Rows = append(res.Rows, row)
			t.row(fmt.Sprintf("%.2f", d), fmt.Sprintf("%.3f", tc),
				row.Iterations, row.Neighbors, f3(row.RankMass), row.Explored)
		}
	}
	t.flush()

	// Rank-mass growth per iteration (d = 0.85): spreading activation
	// accumulates rank monotonically toward its fixpoint.
	fmt.Fprintln(w, "\nrank mass vs iteration (d=0.85):")
	t2 := newTable(w, "iterations", "rank mass")
	for _, iters := range []int{1, 2, 4, 8, 16, 32, 64} {
		nb, err := trust.Appleseed(ctx, adj, srcOrd, trust.AppleseedOptions{
			Threshold:     1e-12, // effectively never converge early
			MaxIterations: iters,
			MaxNodes:      800,
		}, nil)
		if err != nil {
			return res, err
		}
		var mass float64
		for _, r := range nb.Ranks {
			mass += r.Trust
		}
		t2.row(iters, f3(mass))
	}
	t2.flush()
	fmt.Fprintln(w, "expected shape: smaller Tc -> more iterations and more rank mass;")
	fmt.Fprintln(w, "higher d spreads deeper (more neighbors); mass bounded by injection 200.")
	return res, nil
}
