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
	"swrec/internal/sparse"
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

// Catalog resolves product metadata; *model.Community satisfies it.
type Catalog interface {
	Product(model.ProductID) *model.Product
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

// PropagateLeaf distributes share score units over topic d and its
// super-topics according to the generator's mode, accumulating into out.
// This is the inner step of profile generation, exported for E1 and for
// the incremental updates §4's crawlers perform.
func (g *Generator) PropagateLeaf(out sparse.Vector, d taxonomy.Topic, share float64) {
	g.PropagateLeafFunc(d, share, func(p taxonomy.Topic, v float64) { out.Add(int32(p), v) })
}

// PropagateLeafFunc is PropagateLeaf emitting through add instead of a
// sparse map — the allocation-free form compiled profile builders
// (internal/profmat) accumulate through. The increments, their values,
// and their order are identical to PropagateLeaf's, so a dense
// accumulation of the add stream reproduces the sparse vector exactly.
func (g *Generator) PropagateLeafFunc(d taxonomy.Topic, share float64, add func(taxonomy.Topic, float64)) {
	path, coeff := g.tax.PathTable().At(d)
	switch g.Mode {
	case Flat:
		add(d, share)
	case Uniform:
		per := share / float64(len(path))
		for _, p := range path {
			add(p, per)
		}
	default: // Eq3
		// Each path node receives share·coeff: the descriptor the share
		// over the path's divisor, each super-topic its child's amount
		// over (sib(child)+1) — Eq. 3, folded into the taxonomy's
		// PathTable.
		for i, p := range path {
			add(p, share*coeff[i])
		}
	}
}

// Profile builds the taxonomy score vector of agent a against the catalog.
// Only positively rated products contribute: "each item the user likes
// infers some interest score" (§3.3). Products missing from the catalog or
// carrying no descriptors are skipped. The returned vector's entries sum
// to (at most) Score; exactly Score when every liked product resolved.
func (g *Generator) Profile(a *model.Agent, cat Catalog) sparse.Vector {
	out, _ := g.ProfileCtx(context.Background(), a, cat)
	return out
}

// ProfileCtx is Profile with cancellation: both the contribution scan and
// the Eq. 3 propagation loop check ctx at per-product boundaries, so a
// caller's deadline interrupts profile generation for agents with long
// rating histories. Returns ctx.Err() (and a nil vector) when cancelled.
func (g *Generator) ProfileCtx(ctx context.Context, a *model.Agent, cat Catalog) (sparse.Vector, error) {
	var s Streamer
	s.g = g
	out := sparse.New(len(a.Ratings) * 4)
	err := s.Profile(ctx, a, cat, func(d taxonomy.Topic, sco float64) {
		out.Add(int32(d), sco)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// contrib is one product contributing to a profile: its descriptors and
// its share weight.
type contrib struct {
	topics []taxonomy.Topic
	weight float64
}

// Streamer streams agents' profile increments through a callback, reusing
// its scratch buffers across agents so repeated generation (the compiled
// profile matrix, internal/profmat) allocates nothing per agent. A
// Streamer is not safe for concurrent use; compiled builders keep one per
// worker. The increment values and their order are exactly those of
// ProfileCtx, so accumulating the stream reproduces the map-based vector
// bit for bit.
type Streamer struct {
	g        *Generator
	contribs []contrib
}

// NewStreamer returns a Streamer over the generator's taxonomy and
// propagation settings.
func (g *Generator) NewStreamer() *Streamer { return &Streamer{g: g} }

// positiveCatalog is the fast path a catalog may offer: *model.Community
// memoizes each agent's positive, cataloged ratings by product ordinal,
// so collect indexes the record table instead of hashing a product ID
// per rating.
type positiveCatalog interface {
	PositiveRatings(*model.Agent) []model.PositiveRating
	Symbols() model.Symbols
}

// collect gathers agent a's contributing products into the reused
// contribs buffer and returns the total contribution weight. The
// contribution order is the positive prefix of RatedProducts (descending
// value, ties by product ID) — deterministic and memoized on the agent.
func (s *Streamer) collect(ctx context.Context, a *model.Agent, cat Catalog) (float64, error) {
	g := s.g
	s.contribs = s.contribs[:0]
	var totalWeight float64
	if pc, ok := cat.(positiveCatalog); ok {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sym := pc.Symbols()
		for _, pr := range pc.PositiveRatings(a) {
			topics := sym.ProductAt(pr.Ord).Topics
			if len(topics) == 0 {
				continue
			}
			w := 1.0
			if g.WeightByRating {
				w = pr.Value
			}
			s.contribs = append(s.contribs, contrib{topics: topics, weight: w})
			totalWeight += w
		}
		return totalWeight, nil
	}
	for i, rs := range a.RatedProducts() {
		if rs.Value <= 0 {
			break // positives form a prefix
		}
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		p := cat.Product(rs.Product)
		if p == nil || len(p.Topics) == 0 {
			continue
		}
		w := 1.0
		if g.WeightByRating {
			w = rs.Value
		}
		s.contribs = append(s.contribs, contrib{topics: p.Topics, weight: w})
		totalWeight += w
	}
	return totalWeight, nil
}

// Profile streams agent a's profile: for every topic receiving score, add
// is called with the increment (topics repeat; callers accumulate).
// Returns ctx.Err() when cancelled, in which case the stream is partial.
func (s *Streamer) Profile(ctx context.Context, a *model.Agent, cat Catalog, add func(taxonomy.Topic, float64)) error {
	g := s.g
	totalWeight, err := s.collect(ctx, a, cat)
	if err != nil {
		return err
	}
	if totalWeight == 0 {
		return nil
	}
	score := g.Score
	if score == 0 {
		score = DefaultScore
	}
	for i, c := range s.contribs {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		productShare := score * c.weight / totalWeight
		descriptorShare := productShare / float64(len(c.topics))
		for _, d := range c.topics {
			g.PropagateLeafFunc(d, descriptorShare, add)
		}
	}
	return nil
}

// ProfileDense streams agent a's profile directly into a caller-owned
// dense accumulator: vals[t] collects topic t's total and bit t of the
// occupancy bitmap marks touched cells. vals must be at least
// taxonomy-length long and bits at least ⌈len(vals)/64⌉ words; the
// caller clears the bitmap between agents (a handful of words — the
// taxonomy-length vals array needs no clearing, occupancy gates every
// read). Walking the bitmap with bits.TrailingZeros64 enumerates the
// touched dimensions in ascending order, which is how internal/profmat
// gathers rows without sorting. The increment values and accumulation
// order match Profile exactly.
func (s *Streamer) ProfileDense(ctx context.Context, a *model.Agent, cat Catalog, vals []float64, bm []uint64) error {
	g := s.g
	pt := g.tax.PathTable()
	totalWeight, err := s.collect(ctx, a, cat)
	if err != nil {
		return err
	}
	if totalWeight == 0 {
		return nil
	}
	score := g.Score
	if score == 0 {
		score = DefaultScore
	}
	mode := g.Mode
	for i, c := range s.contribs {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		productShare := score * c.weight / totalWeight
		share := productShare / float64(len(c.topics))
		switch mode {
		case Flat:
			for _, d := range c.topics {
				accumulate(vals, bm, d, share)
			}
		case Uniform:
			for _, d := range c.topics {
				path, _ := pt.At(d)
				per := share / float64(len(path))
				for _, p := range path {
					accumulate(vals, bm, p, per)
				}
			}
		default: // Eq3
			for _, d := range c.topics {
				path, coeff := pt.At(d)
				for k, p := range path {
					accumulate(vals, bm, p, share*coeff[k])
				}
			}
		}
	}
	return nil
}

// accumulate adds v to vals[p], the first increment of a topic storing it
// and marking the topic in the occupancy bitmap.
func accumulate(vals []float64, bm []uint64, p taxonomy.Topic, v float64) {
	if w, m := p>>6, uint64(1)<<(uint(p)&63); bm[w]&m == 0 {
		bm[w] |= m
		vals[p] = v
	} else {
		vals[p] += v
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
