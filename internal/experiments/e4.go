package experiments

import (
	"fmt"
	"io"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/eval"
	"swrec/internal/model"
)

// E4Row is one attack size point.
type E4Row struct {
	Sybils         int
	PureCFExposed  bool // pushed product in pure-CF top-N
	PureCFRank     int
	HybridExposed  bool // pushed product in trust-filtered top-N
	HybridRank     int
	SybilsInPureCF int // sybils among pure CF's top-k peers
	SybilsInHybrid int // sybils among hybrid's ranked peers
}

// E4Result is the attack sweep.
type E4Result struct {
	Rows []E4Row
	// PureCFEverExposed / HybridEverExposed summarize the headline: pure
	// CF falls for the attack, the trust-filtered pipeline does not.
	PureCFEverExposed bool
	HybridEverExposed bool
}

// E4 reproduces the §3.2 manipulation argument: "malicious agents a_j can
// accomplish high similarity with a_i by simply copying its profile"; the
// trust neighborhood makes the recommender "less vulnerable to others"
// (Marsh [8]). Sybils cloning the victim's profile push one product; pure
// CF ranks them as top peers and recommends the pushed product, while the
// Appleseed-filtered hybrid never sees them (no trust path).
func E4(w io.Writer, p Params) (E4Result, error) {
	section(w, "E4", "manipulation resistance: profile-cloning sybil attack (§3.2)")
	const topN = 10
	var res E4Result
	t := newTable(w, "sybils", "pureCF pushed@rank", "hybrid pushed@rank",
		"sybils in pureCF top-25 peers", "sybils in hybrid peers")
	for _, k := range []int{1, 5, 10, 25, 50} {
		cfg := p.Config()
		comm, _ := datagen.Generate(cfg)
		victim := pickRatedAgent(comm)
		push := model.ProductID("urn:isbn:attack-payload")
		sybils := datagen.InjectSybils(comm, victim, k, push)
		sybilSet := map[model.AgentID]bool{}
		for _, s := range sybils {
			sybilSet[s] = true
		}

		pure, err := core.New(comm, core.Options{
			Metric:   core.NoTrust,
			AlphaSet: true, Alpha: 0,
			MaxNeighbors: 25,
			CF:           cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
		if err != nil {
			return res, err
		}
		hybrid, err := core.New(comm, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
		if err != nil {
			return res, err
		}

		pureRecs, err := pure.Recommend(victim, topN)
		if err != nil {
			return res, err
		}
		hybridRecs, err := hybrid.Recommend(victim, topN)
		if err != nil {
			return res, err
		}
		pureExp := eval.Exposure(pureRecs, push)
		hybridExp := eval.Exposure(hybridRecs, push)

		purePeers, err := pure.RankedPeers(victim)
		if err != nil {
			return res, err
		}
		hybridPeers, err := hybrid.RankedPeers(victim)
		if err != nil {
			return res, err
		}
		row := E4Row{
			Sybils:        k,
			PureCFExposed: pureExp.Recommended, PureCFRank: pureExp.Rank,
			HybridExposed: hybridExp.Recommended, HybridRank: hybridExp.Rank,
		}
		sym := comm.Symbols()
		for _, pr := range purePeers {
			if id, _ := sym.AgentID(pr.Ord()); sybilSet[id] {
				row.SybilsInPureCF++
			}
		}
		for _, pr := range hybridPeers {
			if id, _ := sym.AgentID(pr.Ord()); sybilSet[id] {
				row.SybilsInHybrid++
			}
		}
		res.Rows = append(res.Rows, row)
		res.PureCFEverExposed = res.PureCFEverExposed || row.PureCFExposed
		res.HybridEverExposed = res.HybridEverExposed || row.HybridExposed
		t.row(k, exposureCell(pureExp), exposureCell(hybridExp),
			row.SybilsInPureCF, row.SybilsInHybrid)
	}
	t.flush()
	fmt.Fprintf(w, "expected shape: pure CF recommends the pushed product (exposed=%v);\n",
		res.PureCFEverExposed)
	fmt.Fprintf(w, "the trust-filtered hybrid never does (exposed=%v).\n", res.HybridEverExposed)
	return res, nil
}

// pickRatedAgent returns the first agent with ≥3 positive ratings (falls
// back to the first agent).
func pickRatedAgent(comm *model.Community) model.AgentID {
	for _, id := range comm.Agents() {
		if len(comm.Agent(id).PositiveRatings()) >= 3 {
			return id
		}
	}
	return comm.Agents()[0]
}

func exposureCell(e eval.AttackExposure) string {
	if !e.Recommended {
		return "no"
	}
	return fmt.Sprintf("yes@%d", e.Rank)
}
