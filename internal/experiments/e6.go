package experiments

import (
	"fmt"
	"io"
	"slices"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
)

// E6Row is one community-size point of the scalability experiment.
type E6Row struct {
	Agents          int
	FullScanMs      float64 // pure CF over all agents
	FullCandidates  int
	TrustMs         float64 // Appleseed-prefiltered pipeline
	TrustCandidates int
}

// E6Result is the sweep.
type E6Result struct {
	Rows []E6Row
}

// E6 validates the §2 scalability argument: "computing similarity
// measures for all these individuals becomes infeasible; scalability can
// only be ensured when restricting latter computations to sufficiently
// narrow neighborhoods". Full-scan CF examines every agent; the
// Appleseed-prefiltered pipeline — the serving default — examines a
// bounded neighborhood regardless of community size. E12 sweeps the
// bound itself.
func E6(w io.Writer, p Params) (E6Result, error) {
	section(w, "E6", "scalability: full-scan CF vs trust-prefiltered neighborhood (§2)")
	sizes := []int{250, 500, 1000, 2000}
	if p.Scale == "paper" {
		sizes = []int{1000, 2500, 5000, 9100}
	}
	var res E6Result
	t := newTable(w, "agents", "full-scan ms", "candidates", "appleseed ms", "candidates")
	for _, n := range sizes {
		cfg := p.Config()
		cfg.Agents = n
		comm, _ := datagen.Generate(cfg)
		// Use the best-connected agent so the trust pipeline has a real
		// neighborhood to prefilter at every community size.
		active := comm.Agents()[0]
		best := -1
		for _, id := range comm.Agents() {
			if d := len(comm.Agent(id).TrustedPeers()); d > best {
				best = d
				active = id
			}
		}

		full, err := core.New(comm, wholeRange(core.Options{
			Metric:   core.NoTrust,
			AlphaSet: true, Alpha: 0,
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		}, n))
		if err != nil {
			return res, err
		}
		// The serving defaults: range, floor and M as the zero value
		// resolves them, over the same compiled profile matrix and
		// adjacency as the full scan.
		pre, err := full.WithOptions(core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
		if err != nil {
			return res, err
		}

		// timeOf is the median of five requests after an untimed one:
		// compiling the matrix and the adjacency is per-community set-up,
		// not the per-request cost §2 argues about.
		timeOf := func(r *core.Recommender) (float64, int, error) {
			var peers []core.PeerRank
			var ms []float64
			for i := 0; i < 6; i++ {
				d, err := elapsedMs(func() (err error) {
					if peers, err = r.RankedPeers(active); err != nil {
						return err
					}
					_, err = r.Recommend(active, 10)
					return err
				})
				if err != nil {
					return 0, 0, err
				}
				if i > 0 {
					ms = append(ms, d)
				}
			}
			slices.Sort(ms)
			return ms[len(ms)/2], len(peers), nil
		}
		fullMs, fullN, err := timeOf(full)
		if err != nil {
			return res, err
		}
		trustMs, trustN, err := timeOf(pre)
		if err != nil {
			return res, err
		}
		row := E6Row{Agents: n, FullScanMs: fullMs, FullCandidates: fullN,
			TrustMs: trustMs, TrustCandidates: trustN}
		res.Rows = append(res.Rows, row)
		t.row(n, millis(fullMs), fullN, millis(trustMs), trustN)
	}
	t.flush()
	fmt.Fprintln(w, "expected shape: full-scan candidates (and time) grow linearly with the")
	fmt.Fprintln(w, "community; the trust-prefiltered pipeline keeps at most M neighbors.")
	return res, nil
}
