// Package profile implements taxonomy-based interest profile generation,
// the second pillar of the paper's approach (§3.3): instead of sparse
// product-rating vectors, every agent gets a score vector over the topics
// of taxonomy C, so that "one may establish high user similarity for users
// which have not even rated one single product in common".
//
// Score assignment follows the paper exactly:
//
//   - the overall profile score of an agent is a fixed constant s
//     (normalization: agents with short rating histories thus weigh each
//     rating more heavily);
//
//   - s is divided evenly among the products contributing to the profile;
//
//   - a product's share is divided evenly among its topic descriptors
//     f(b);
//
//   - each descriptor's share is distributed over the descriptor and its
//     super-topics along the primary path to the top element ⊤ by Eq. 3:
//
//     sco(p_m) = sco(p_{m+1}) / (sib(p_{m+1}) + 1)
//
//     i.e. remote super-topics receive less score, attenuated by how many
//     siblings compete at each level, with the path total equal to the
//     descriptor's share.
//
// Example 1 of the paper (4 books, 5 descriptors, s = 1000, leaf Algebra)
// is reproduced verbatim by TestExample1 and experiment E1.
//
// The loop that applies these rules is written once (Streamer) and writes
// into a profmat.Gatherer: a profile, and a product's descriptor row, is
// a profmat.Row and takes no other form.
//
// The per-topic paths and Eq. 3 coefficients depend on the taxonomy
// alone, so this package keeps none: a Generator reads
// taxonomy.PathTable, which the taxonomy builds in one pass on first use
// and memoizes until its next structural change. Every generator over one
// taxonomy shares the table, and nothing outlives the taxonomy.
package profile

import (
	"context"
	"fmt"

	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// DefaultScore is the overall profile score s used when none is given;
// Example 1 uses 1000.
const DefaultScore = 1000.0

// Mode selects how a descriptor's score spreads over the taxonomy.
type Mode int

const (
	// Eq3 is the paper's sibling-attenuated propagation (default).
	Eq3 Mode = iota
	// Uniform splits a descriptor's share evenly over all path nodes —
	// the ablation of Eq. 3's sibling term (DESIGN.md §5).
	Uniform
	// Flat assigns the entire share to the descriptor topic itself with
	// no super-topic inference. This reproduces plain category-based
	// filtering (Sollenborn & Funk [14]), the baseline whose lost
	// "relationships and mutual impact between categories" the paper
	// criticizes.
	Flat
)

// String names the mode for experiment output.
func (m Mode) String() string {
	switch m {
	case Eq3:
		return "eq3"
	case Uniform:
		return "uniform"
	case Flat:
		return "flat"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Generator builds taxonomy profiles. The zero value is unusable; use New.
type Generator struct {
	tax *taxonomy.Taxonomy
	// Score is the normalization constant s. Default DefaultScore.
	Score float64
	// Mode selects the propagation scheme. Default Eq3.
	Mode Mode
	// WeightByRating, when set, splits s over contributing products
	// proportionally to their rating value instead of evenly. Example 1
	// splits evenly ("mentioned" books are implicit unit votes), so the
	// default is false; explicit-rating communities may prefer true.
	WeightByRating bool
}

// New creates a generator over the given taxonomy.
func New(tax *taxonomy.Taxonomy) *Generator {
	return &Generator{tax: tax, Score: DefaultScore}
}

// Taxonomy returns the taxonomy the generator propagates over.
func (g *Generator) Taxonomy() *taxonomy.Taxonomy { return g.tax }

// ProfileCtx builds the taxonomy profile of agent a against the
// community's catalog as a standalone row. Only positively rated products
// contribute: "each item the user likes infers some interest score"
// (§3.3). Products carrying no descriptors are skipped. The row's entries
// sum to Score whenever a liked product resolved, and the row is empty
// otherwise. The Eq. 3 loop checks ctx at per-product boundaries, so a
// caller's deadline interrupts generation for agents with long rating
// histories; it returns ctx.Err() (and an empty row) when cancelled.
func (g *Generator) ProfileCtx(ctx context.Context, a *model.Agent, comm *model.Community) (profmat.Row, error) {
	out := profmat.NewGatherer(g.tax.Len(), 0)
	if err := g.NewStreamer().ProfileDense(ctx, a, comm, out); err != nil {
		return profmat.Row{}, err
	}
	return out.Gather(), nil
}

// contrib is one product contributing to a profile: its descriptors and
// its share weight.
type contrib struct {
	topics []taxonomy.Topic
	weight float64
}

// Streamer runs the Eq. 3 loop for one agent or product after another
// into a caller's gatherer, reusing its contribution buffer, so repeated
// generation (the compiled profile matrix, internal/profmat) allocates
// nothing per agent. A Streamer is not safe for concurrent use; compiled
// builders keep one per worker.
type Streamer struct {
	g        *Generator
	contribs []contrib
}

// NewStreamer returns a Streamer over the generator's taxonomy and
// propagation settings.
func (g *Generator) NewStreamer() *Streamer { return &Streamer{g: g} }

// ProfileDense writes agent a's profile (see ProfileCtx) into out; the
// caller gathers the row. The contributions are a's positive, cataloged
// ratings in the community's memoized order (descending value, ties by
// product ID), so the increments, and the order each topic sums them in,
// are the same on every call. Returns ctx.Err() when cancelled, in which
// case out holds a partial profile.
func (s *Streamer) ProfileDense(ctx context.Context, a *model.Agent, comm *model.Community, out *profmat.Gatherer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.contribs = s.contribs[:0]
	var totalWeight float64
	sym := comm.Symbols()
	for _, e := range a.PositiveRatings() {
		topics := sym.ProductAt(e.Ord).Topics
		if len(topics) == 0 {
			continue
		}
		w := 1.0
		if s.g.WeightByRating {
			w = e.Val
		}
		s.contribs = append(s.contribs, contrib{topics: topics, weight: w})
		totalWeight += w
	}
	if totalWeight == 0 {
		return nil
	}
	score := s.g.Score
	if score == 0 {
		score = DefaultScore
	}
	pt := s.g.tax.PathTable()
	for i, c := range s.contribs {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.spread(pt, c.topics, score*c.weight/totalWeight, out)
	}
	return nil
}

// ProductDense writes product p's descriptor row into out: the Eq. 3 loop
// run over p alone with s = 1, the item-space counterpart of an agent
// profile that content boost and diversification compare. A product
// without descriptors writes nothing.
func (s *Streamer) ProductDense(p *model.Product, out *profmat.Gatherer) {
	if len(p.Topics) > 0 {
		s.spread(s.g.tax.PathTable(), p.Topics, 1, out)
	}
}

// ProductMatrix compiles every product of comm's catalog to its
// descriptor row (ProductDense) in one matrix, row i for product ordinal
// i, by profmat.BuildDelta.
func (g *Generator) ProductMatrix(comm *model.Community) *profmat.Matrix {
	sym := comm.Symbols()
	fill := func() profmat.Fill {
		st := g.NewStreamer()
		return func(ord int32, out *profmat.Gatherer) error {
			st.ProductDense(sym.ProductAt(ord), out)
			return nil
		}
	}
	mat, _ := profmat.BuildDelta(sym.NumProducts(), g.tax.Len(), 1, nil, nil, fill) // the fill never fails
	return mat
}

// spread is Eq. 3 for one product: its share splits evenly over its
// descriptors, and each descriptor's share over its primary path by the
// generator's mode.
func (s *Streamer) spread(pt *taxonomy.PathTable, topics []taxonomy.Topic, productShare float64, out *profmat.Gatherer) {
	share := productShare / float64(len(topics))
	switch s.g.Mode {
	case Flat:
		for _, d := range topics {
			out.Add(int32(d), share)
		}
	case Uniform:
		for _, d := range topics {
			path, _ := pt.At(d)
			per := share / float64(len(path))
			for _, p := range path {
				out.Add(int32(p), per)
			}
		}
	default: // Eq3
		// Each path node receives share·coeff: the descriptor the share
		// over the path's divisor, each super-topic its child's amount
		// over (sib(child)+1) — Eq. 3, folded into the taxonomy's
		// PathTable.
		for _, d := range topics {
			path, coeff := pt.At(d)
			for k, p := range path {
				out.Add(int32(p), float64(share*coeff[k]))
			}
		}
	}
}

// AncestorsAt returns, for every topic, the dimension its score folds
// onto when profiles are compared at super-topic resolution: the topic
// itself down to depth maxDepth (the root has depth 0), its primary-path
// ancestor at maxDepth below that. This is the dual of the Eq. 3 downward
// propagation: where Eq. 3 spreads a descriptor's score toward ⊤ to make
// fine-grained profiles comparable, the fold abandons the fine grain and
// compares agents at super-topic resolution — the strategy ladder's
// backoff for profile pairs whose deep topics are disjoint (§2's "low
// profile overlap" pathology). maxDepth < 1 is treated as 1 (folding
// everything onto ⊤ would make all profiles identical). The slice is
// indexed by topic and is the remap profmat.Fold takes.
func (g *Generator) AncestorsAt(maxDepth int) []int32 {
	if maxDepth < 1 {
		maxDepth = 1
	}
	pt := g.tax.PathTable()
	out := make([]int32, g.tax.Len())
	for d := range out {
		path, _ := pt.At(taxonomy.Topic(d))
		if len(path)-1 <= maxDepth {
			out[d] = int32(d)
		} else {
			out[d] = int32(path[maxDepth])
		}
	}
	return out
}
