package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"swrec/internal/cf"
	"swrec/internal/datagen"
	"swrec/internal/eval"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
)

// E8Row is one taxonomy-shape measurement.
type E8Row struct {
	Shape     string
	Topics    int
	MaxDepth  int
	IntraMean float64 // mean similarity of same-cluster pairs
	InterMean float64 // mean similarity of cross-cluster pairs
	Gap       float64 // IntraMean - InterMean
	Contrast  float64 // IntraMean / InterMean: discrimination power
	Mode      string  // propagation mode (for the Eq. 3 ablation)
}

// E8Result is the shape × propagation-mode comparison.
type E8Result struct {
	Rows []E8Row
}

// E8 explores the §6 future-work question — "the impact that taxonomy
// structure may have upon profile generation and similarity computation"
// — by generating the same community against a deep book-like taxonomy
// and a broad, shallow DVD-like taxonomy, and measuring how well taxonomy
// profiles discriminate same-interest (intra-cluster) from
// different-interest (inter-cluster) agent pairs. The Eq. 3 vs uniform
// propagation ablation (DESIGN.md §5) rides along.
func E8(w io.Writer, p Params) (E8Result, error) {
	section(w, "E8", "taxonomy shape impact: deep (books) vs broad (DVD) (§6)")
	// The comparison is controlled: both shapes have the same number of
	// top-level subtrees (one per interest cluster) and the same number
	// of leaves per subtree, so leaf-collision density is identical and
	// only the intermediate hierarchy — where Eq. 3 accumulates shared
	// super-topic mass — differs.
	shapes := []struct {
		name string
		tc   datagen.TaxonomyConfig
	}{
		{"deep (books-like)", datagen.TaxonomyConfig{Levels: []int{6, 6, 6, 6}, Root: "Books"}},
		{"broad (DVD-like)", datagen.TaxonomyConfig{Levels: []int{6, 216}, Root: "DVD"}},
	}
	clusters := 6
	if p.Scale == "paper" {
		// 4 top subtrees, 4096 leaves each; deep nests 6 levels below the
		// anchors, broad flattens them under one level.
		shapes[0].tc = datagen.TaxonomyConfig{Levels: []int{4, 4, 4, 4, 4, 4, 4}, Root: "Books"}
		shapes[1].tc = datagen.TaxonomyConfig{Levels: []int{4, 4096}, Root: "DVD"}
		clusters = 4
	}

	var res E8Result
	t := newTable(w, "shape", "topics", "depth", "mode", "sim(intra)", "sim(inter)", "gap", "contrast")
	for _, sh := range shapes {
		cfg := p.Config()
		cfg.Taxonomy = sh.tc
		cfg.Clusters = clusters
		comm, meta := datagen.Generate(cfg)
		stats := comm.Taxonomy().ComputeStats()

		for _, mode := range []profile.Mode{profile.Eq3, profile.Uniform} {
			var f simFilter
			if mode == profile.Eq3 {
				cff, err := cf.New(comm, cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy})
				if err != nil {
					return res, err
				}
				f = cff
			} else {
				// The cf package exposes Eq3 and Flat; build the uniform
				// ablation by hand.
				f = newModeFilter(comm, mode)
			}
			intra, inter := clusterSimilarity(comm, meta, f, cfg.Seed+13)
			row := E8Row{
				Shape:     sh.name,
				Topics:    stats.Topics,
				MaxDepth:  stats.MaxDepth,
				IntraMean: intra,
				InterMean: inter,
				Gap:       intra - inter,
				Mode:      mode.String(),
			}
			if inter > 0 {
				row.Contrast = intra / inter
			}
			res.Rows = append(res.Rows, row)
			t.row(row.Shape, row.Topics, row.MaxDepth, row.Mode,
				f3(row.IntraMean), f3(row.InterMean), f3(row.Gap), f3(row.Contrast))
		}
	}
	t.flush()
	fmt.Fprintln(w, "expected shape: the deeper taxonomy yields the larger intra/inter gap;")
	fmt.Fprintln(w, "Eq. 3 wins on contrast (uniform propagation inflates ALL similarities,")
	fmt.Fprintln(w, "blurring same-interest and different-interest pairs together).")
	return res, nil
}

// simFilter is the minimal similarity surface E8 needs; *cf.Filter
// satisfies it, and modeFilter provides the non-default propagation-mode
// ablation.
type simFilter interface {
	Similarity(a, b model.AgentID) (float64, bool)
}

// modeFilter computes cosine similarity over profiles built with an
// arbitrary propagation mode, each compiled once into one gatherer.
type modeFilter struct {
	st   *profile.Streamer
	g    *profmat.Gatherer
	sc   *profmat.Scratch
	comm *model.Community //nolint:snapshotpin -- experiment-owned community; no serving engine (and no Swap) exists in the harness
	memo map[model.AgentID]profmat.Row
}

func newModeFilter(comm *model.Community, mode profile.Mode) *modeFilter {
	gen := profile.New(comm.Taxonomy())
	gen.Mode = mode
	dims := comm.Taxonomy().Len()
	return &modeFilter{
		st:   gen.NewStreamer(),
		g:    profmat.NewGatherer(dims, 0),
		sc:   profmat.NewScratch(dims),
		comm: comm,
		memo: map[model.AgentID]profmat.Row{},
	}
}

func (m *modeFilter) Similarity(a, b model.AgentID) (float64, bool) {
	ra, rb := m.profileOf(a), m.profileOf(b)
	m.sc.Load(&ra)
	return m.sc.CosineTo(&rb)
}

func (m *modeFilter) profileOf(id model.AgentID) profmat.Row {
	if r, ok := m.memo[id]; ok {
		return r
	}
	_ = m.st.ProfileDense(context.Background(), m.comm.Agent(id), m.comm, m.g) // errors only on cancellation
	r := m.g.Gather()
	m.memo[id] = r
	return r
}

// clusterSimilarity samples same-cluster and cross-cluster agent pairs and
// returns their mean similarities.
func clusterSimilarity(comm *model.Community, meta *datagen.Meta, f simFilter, seed int64) (intra, inter float64) {
	rng := rand.New(rand.NewSource(seed))
	agents := comm.Agents()
	var intraVals, interVals []float64
	for len(intraVals) < 150 || len(interVals) < 150 {
		a := agents[rng.Intn(len(agents))]
		b := agents[rng.Intn(len(agents))]
		if a == b {
			continue
		}
		s, ok := f.Similarity(a, b)
		if !ok {
			continue
		}
		if meta.AgentCluster[a] == meta.AgentCluster[b] {
			if len(intraVals) < 150 {
				intraVals = append(intraVals, s)
			}
		} else if len(interVals) < 150 {
			interVals = append(interVals, s)
		}
	}
	intra, _ = eval.MeanStd(intraVals)
	inter, _ = eval.MeanStd(interVals)
	return intra, inter
}
