package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"swrec/internal/attack"
	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/eval"
	"swrec/internal/loadgen"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/trust"
)

// E12Row is one (R, M, floor) point of the neighborhood-bound sweep.
type E12Row struct {
	MaxNodes     int     // R: Appleseed expansion range
	MaxNeighbors int     // M: peers kept after rank synthesis
	Floor        float64 // relative trust floor
	// Whole marks the reference row: bounds that never bind on the
	// community. Default marks the row the zero-value options resolve to.
	Whole, Default bool

	HitRate float64        // E7 leave-one-out, top-20
	PR      []eval.PRPoint // E7 precision/recall at N = 10, 20
	// FullSynthesis is the share of probe agents the strategy ladder
	// answers on its first rung.
	FullSynthesis float64
	// PushedRate and RankPerturbation are the confinement of the load
	// harness's Sybil ring under the default blend: the short preset's
	// community and attack, read through the ladder the way swrecload
	// reads it, so the column is what `make load-short` gates.
	PushedRate       float64
	RankPerturbation int
	// Sybils and Exposed repeat E4 under this row's bounds: sybils among
	// the victim's ranked peers and attack sizes whose payload reached the
	// victim's top 10, each summed over E4's five attack sizes.
	Sybils, Exposed int
	// ColdMs is the median cold recommendation latency at each of
	// E12Result.Sizes.
	ColdMs []float64
}

// E12Result is the sweep.
type E12Result struct {
	Sizes []int // community sizes of the latency columns
	Rows  []E12Row
}

// e12Grid returns the swept (R, M, floor) points, the whole-range
// reference first — its bounds are wide enough for every community the
// sweep builds. The serving defaults are a point of every grid.
func e12Grid(scale string) []E12Row {
	ranges, ms, floors := []int{50, trust.DefaultMaxNodes}, []int{25, core.DefaultMaxNeighbors}, []float64{core.DefaultTrustThreshold, 0.01}
	if scale == "paper" {
		ranges, ms, floors = []int{200, 400, 800}, []int{50, 150, 300}, []float64{0.0001, 0.001, 0.01, 0.1}
	}
	rows := []E12Row{{MaxNodes: 1 << 30, MaxNeighbors: 1 << 30, Floor: 1e-300, Whole: true}}
	for _, r := range ranges {
		for _, m := range ms {
			for _, f := range floors {
				rows = append(rows, E12Row{MaxNodes: r, MaxNeighbors: m, Floor: f,
					Default: r == trust.DefaultMaxNodes && m == core.DefaultMaxNeighbors && f == core.DefaultTrustThreshold})
			}
		}
	}
	return rows
}

// options are the serving options (the benchmark's and swrecload's:
// Appleseed, taxonomy cosine, α = 0.5) under this row's bounds.
func (r E12Row) options() core.Options {
	return core.Options{
		Appleseed:      trust.AppleseedOptions{MaxNodes: r.MaxNodes},
		MaxNeighbors:   r.MaxNeighbors,
		TrustThreshold: r.Floor,
		CF:             cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
}

// e12Variants derives one recommender per row over c, all sharing one
// compiled profile matrix and adjacency.
func e12Variants(c *model.Community, rows []E12Row) ([]*core.Recommender, error) {
	base, err := core.New(c, rows[0].options())
	if err != nil {
		return nil, err
	}
	recs := make([]*core.Recommender, len(rows))
	for i, r := range rows {
		if recs[i], err = base.WithOptions(r.options()); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// ladderClient reads an engine the way the HTTP API does — through the
// strategy ladder — for attack.Measure.
type ladderClient struct{ eng *engine.Engine }

func (c ladderClient) Neighbors(id model.AgentID, n int) ([]attack.Peer, error) {
	snap := c.eng.Snapshot()
	peers, _, err := c.eng.RankedPeersLadder(context.Background(), snap, id, engine.Overrides{}, strategy.Selector{})
	if n > 0 && n < len(peers) {
		peers = peers[:n]
	}
	sym := snap.Community().Symbols()
	out := make([]attack.Peer, len(peers))
	for i, p := range peers {
		out[i].Agent, _ = sym.AgentID(p.Ord())
		out[i].Trust = p.Trust
	}
	return out, err
}

func (c ladderClient) Recommendations(id model.AgentID, n int) ([]core.Recommendation, error) {
	recs, _, err := c.eng.RecommendLadder(context.Background(), c.eng.Snapshot(), id, n, engine.Overrides{}, strategy.Selector{})
	return recs, err
}

// E12 chooses the neighborhood bounds the zero-value options mean. §3.2
// has Appleseed explore a "predefined range" and §3.3 filters only the M
// closest trust peers; how wide, how many and above which trust floor is
// left open. The sweep tabulates, per (R, M, floor): recommendation
// quality (E7's leave-one-out hit rate and precision/recall), how often
// the full pipeline still answers (the strategy ladder's first-rung
// share), manipulation resistance under the default blend (the Sybil
// ring's pushed rate and rank perturbation, E4's admitted sybils), and
// the cold request's latency — beside a reference row with the whole
// community in range.
func E12(w io.Writer, p Params) (E12Result, error) {
	section(w, "E12", "neighborhood bounds: range R x neighbors M x trust floor (§3.2-3.3)")
	const topN = 20
	cfg := p.Config()
	comm, _ := datagen.Generate(cfg)
	n := comm.NumAgents()
	rows := e12Grid(p.Scale)
	trials, probes, sizes := 60, 64, []int{250, 1000}
	if p.Scale == "paper" {
		trials, probes, sizes = 200, 1024, []int{2000, 9100}
	}
	res := E12Result{Sizes: sizes}

	// Quality: E7's trials, every row answering each one.
	variants := func(c *model.Community) ([]*core.Recommender, error) { return e12Variants(c, rows) }
	loo, err := eval.LeaveOneOutEach(comm, variants, topN, trials, rand.New(rand.NewSource(cfg.Seed+101)))
	if err != nil {
		return res, fmt.Errorf("e12 leave-one-out: %w", err)
	}
	pr, err := eval.PrecisionRecallEach(comm, variants, []int{10, 20}, trials, rand.New(rand.NewSource(cfg.Seed+202)))
	if err != nil {
		return res, fmt.Errorf("e12 precision/recall: %w", err)
	}
	for i := range rows {
		rows[i].HitRate, rows[i].PR = loo[i].HitRate, pr[i]
	}

	// Coverage: the share of probe agents the ladder's first rung answers.
	stride := max(n/probes, 1)
	for i := range rows {
		eng, err := engine.New(comm, rows[i].options(), engine.Config{})
		if err != nil {
			return res, err
		}
		asked, full := 0, 0
		for j := 0; j < n; j += stride {
			_, lr, err := eng.RecommendLadder(context.Background(), eng.Snapshot(), comm.Agents()[j], 10, engine.Overrides{}, strategy.Selector{})
			if err != nil {
				return res, err
			}
			asked++
			if lr.Procedure == strategy.FullSynthesis {
				full++
			}
		}
		rows[i].FullSynthesis = float64(full) / float64(asked)
	}

	// The Sybil ring of the load harness's short preset, on that preset's
	// community whatever the sweep's scale: a clean engine and its
	// attacked twin per row.
	short := loadgen.Short()
	clean, _ := datagen.Generate(short.DatagenConfig())
	attacked, _ := datagen.Generate(short.DatagenConfig())
	honest := slices.Clone(attacked.Agents())
	ring, err := attack.Inject(attacked, honest, short.Attacks[0], 0)
	if err != nil {
		return res, err
	}
	sample := attack.SampleHonest(honest, ring.Victim, short.Samples)
	for i := range rows {
		base, err := engine.New(clean, rows[i].options(), engine.Config{})
		if err != nil {
			return res, err
		}
		hit, err := engine.New(attacked, rows[i].options(), engine.Config{})
		if err != nil {
			return res, err
		}
		conf, err := attack.Measure(ladderClient{base}, ladderClient{hit}, ring, sample, short.TopK)
		if err != nil {
			return res, err
		}
		rows[i].PushedRate, rows[i].RankPerturbation = conf.PushedRate, conf.MaxRankPerturbation
	}

	// E4's profile-cloning sybils, at its five attack sizes.
	for _, k := range []int{1, 5, 10, 25, 50} {
		c, _ := datagen.Generate(cfg)
		victim := pickRatedAgent(c)
		push := model.ProductID("urn:isbn:attack-payload")
		sybils := datagen.InjectSybils(c, victim, k, push)
		recs, err := e12Variants(c, rows)
		if err != nil {
			return res, err
		}
		for i, rec := range recs {
			peers, err := rec.RankedPeers(victim)
			if err != nil {
				return res, err
			}
			for _, pr := range peers {
				if id, _ := c.Symbols().AgentID(pr.Ord()); slices.Contains(sybils, id) {
					rows[i].Sybils++
				}
			}
			list, err := rec.Recommend(victim, 10)
			if err != nil {
				return res, err
			}
			if eval.Exposure(list, push).Recommended {
				rows[i].Exposed++
			}
		}
	}

	// Cold latency: the median over distinct agents asked once each.
	for _, size := range sizes {
		lcfg := cfg
		lcfg.Agents = size
		c, _ := datagen.Generate(lcfg)
		recs, err := e12Variants(c, rows)
		if err != nil {
			return res, err
		}
		ids := c.Agents()
		for i, rec := range recs {
			if _, err := rec.Recommend(ids[0], 10); err != nil { // compiles the shared matrix and adjacency
				return res, err
			}
			var ms []float64
			for j := 1; j <= 64 && j < len(ids); j++ {
				d, err := elapsedMs(func() error {
					_, err := rec.Recommend(ids[j], 10)
					return err
				})
				if err != nil {
					return res, err
				}
				ms = append(ms, d)
			}
			slices.Sort(ms)
			rows[i].ColdMs = append(rows[i].ColdMs, ms[len(ms)/2])
		}
	}
	res.Rows = rows

	header := []interface{}{"R", "M", "floor", "hit@20", "P@10", "R@10", "P@20", "R@20",
		"full-synth", "pushed", "perturb", "sybils", "exposed"}
	for _, size := range sizes {
		header = append(header, fmt.Sprintf("cold ms @%d", size))
	}
	t := newTable(w, header...)
	for _, r := range rows {
		rng, m, floor := fmt.Sprint(r.MaxNodes), fmt.Sprint(r.MaxNeighbors), fmt.Sprint(r.Floor)
		switch {
		case r.Whole:
			rng, m, floor = "all", "all", "none"
		case r.Default:
			floor += " *"
		}
		cells := []interface{}{rng, m, floor, pct(r.HitRate),
			pct(r.PR[0].Precision), pct(r.PR[0].Recall), pct(r.PR[1].Precision), pct(r.PR[1].Recall),
			f3(r.FullSynthesis), f3(r.PushedRate), r.RankPerturbation, r.Sybils, r.Exposed}
		for _, ms := range r.ColdMs {
			cells = append(cells, millis(ms))
		}
		t.row(cells...)
	}
	t.flush()
	fmt.Fprintln(w, "* = the bounds zero-value options resolve to. expected shape: quality flat")
	fmt.Fprintln(w, "across the bounded rows and within trial noise of the whole-range row;")
	fmt.Fprintln(w, "latency set by R and M, not by the community; the pushed rate collapses at")
	fmt.Fprintln(w, "the first non-zero floor; the first-rung share falls as the floor rises.")
	return res, nil
}
