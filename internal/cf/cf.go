// Package cf implements the similarity-based filtering step of the
// paper's pipeline (§3.3): user-to-user similarity over interest profiles,
// applying "common nearest-neighbor techniques, namely Pearson's
// coefficient [6,3] and cosine distance from Information Retrieval",
// where "profile vectors map category score vectors from C instead of
// plain product-rating vectors".
//
// Three profile representations are supported so the experiments can
// contrast them:
//
//   - Taxonomy: Eq. 3 taxonomy profiles (the paper's proposal),
//   - FlatCategory: category vectors without super-topic inference
//     (category-based filtering [14], the criticized baseline),
//   - Product: plain product-rating vectors (classic CF [6], the
//     representation that suffers the "low profile overlap" of §2).
package cf

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
)

// Measure selects the similarity coefficient.
type Measure int

const (
	// Pearson is Pearson's correlation coefficient over co-present
	// dimensions (default).
	Pearson Measure = iota
	// Cosine is the cosine similarity from Information Retrieval.
	Cosine
)

// String names the measure for experiment output.
func (m Measure) String() string {
	switch m {
	case Pearson:
		return "pearson"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// ParseMeasure is the inverse of Measure.String: the measure named s.
func ParseMeasure(s string) (Measure, error) {
	for m := Pearson; m <= Cosine; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("measure must be pearson|cosine, got %q", s)
}

// Representation selects the profile vector space.
type Representation int

const (
	// Taxonomy uses Eq. 3 taxonomy-based profiles (default).
	Taxonomy Representation = iota
	// FlatCategory uses descriptor-only category vectors.
	FlatCategory
	// Product uses plain product-rating vectors.
	Product
)

// String names the representation for experiment output.
func (r Representation) String() string {
	switch r {
	case Taxonomy:
		return "taxonomy"
	case FlatCategory:
		return "flat-category"
	case Product:
		return "product"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// Options configure a Filter.
type Options struct {
	Measure        Measure
	Representation Representation
	// ProfileScore is the normalization constant s; 0 means the profile
	// package default (1000).
	ProfileScore float64
	// WeightByRating forwards to profile.Generator.
	WeightByRating bool
}

// Filter computes pairwise similarities over one community's compiled
// interest profiles. Every representation compiles to a profmat.Matrix —
// rows over the taxonomy's topics, or over product ordinals — and the
// compiled row is the only stored form of an agent's profile. It is safe
// for concurrent use after construction.
type Filter struct {
	opt Options
	*compiled
}

// compiled is the state a filter shares with its WithMeasure views:
// everything but the coefficient applied to a pair of rows.
type compiled struct {
	comm *model.Community   //nolint:snapshotpin -- owned by the core.Recommender built for one snapshot; never outlives its epoch
	gen  *profile.Generator // nil for the Product representation

	mu sync.Mutex
	// mat is the compiled CSR profile matrix (internal/profmat), built
	// once per filter. Guarded by mu; nil until the first
	// Compile/Similarity.
	mat *profmat.Matrix
	// coarse holds mat folded onto its super-topics, by fold depth, each
	// built by the first AncestorSimilarities call at that depth. Guarded
	// by mu; never carried across epochs.
	coarse map[int]*profmat.Matrix
	// scratch pools *profmat.Scratch instances for batch scans: the
	// active row is scattered into a dense image once, then every peer
	// costs a single pass over its own postings. Held by pointer: the
	// runtime's pool registry keeps a used pool for up to two GC cycles,
	// and an embedded one would keep this struct — and mat — with it.
	scratch *profmat.Pool
}

// New creates a filter over the community. Taxonomy-based representations
// require the community to carry a taxonomy.
func New(comm *model.Community, opt Options) (*Filter, error) {
	f := &Filter{opt: opt, compiled: &compiled{comm: comm, scratch: new(profmat.Pool)}}
	if opt.Representation != Product {
		if comm.Taxonomy() == nil {
			return nil, fmt.Errorf("cf: representation %v requires a taxonomy", opt.Representation)
		}
		g := profile.New(comm.Taxonomy())
		if opt.ProfileScore != 0 {
			g.Score = opt.ProfileScore
		}
		g.WeightByRating = opt.WeightByRating
		if opt.Representation == FlatCategory {
			g.Mode = profile.Flat
		}
		f.gen = g
	}
	return f, nil
}

// Options returns the filter's configuration.
func (f *Filter) Options() Options { return f.opt }

// WithMeasure returns a view of f that applies measure m: the same
// compiled matrix, super-topic matrices and scratch pool, so a
// per-request measure override compiles and pins nothing.
func (f *Filter) WithMeasure(m Measure) *Filter {
	if m == f.opt.Measure {
		return f
	}
	v := *f
	v.opt.Measure = m
	return &v
}

// Generator returns the profile generator backing taxonomy-space
// representations, or nil for the Product representation.
func (f *Filter) Generator() *profile.Generator { return f.gen }

// dims returns the size of the dimension space the rows are keyed in:
// the taxonomy's topics, or the catalog's product ordinals.
func (f *Filter) dims() int {
	if f.gen != nil {
		return f.gen.Taxonomy().Len()
	}
	return f.comm.NumProducts()
}

// Compile builds the compiled profile matrix for every agent of the
// community, after which similarities run as zero-allocation scratch scans.
// Idempotent; concurrent callers serialize on the filter lock.
func (f *Filter) Compile(ctx context.Context) error {
	return f.CompileDelta(ctx, nil, nil)
}

// CompileDelta is Compile carrying over the rows of prev for agent
// ordinals dirty reports false on — the epoch-swap fast path
// (internal/engine). A nil prev or dirty compiles from scratch. On ctx
// expiry the filter is left uncompiled and the next call retries.
func (f *Filter) CompileDelta(ctx context.Context, prev *profmat.Matrix, dirty func(int32) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.compileLocked(ctx, prev, dirty)
	return err
}

// compileLocked returns the compiled matrix, building it (as CompileDelta
// describes) when the filter has none yet. The caller holds f.mu.
func (f *Filter) compileLocked(ctx context.Context, prev *profmat.Matrix, dirty func(int32) bool) (*profmat.Matrix, error) {
	if f.mat == nil {
		newFill := func() profmat.Fill { return f.newFill(ctx) }
		mat, err := profmat.BuildDelta(f.comm.NumAgents(), f.dims(), 0, prev, dirty, newFill)
		if err != nil {
			return nil, err
		}
		f.mat = mat
	}
	return f.mat, nil
}

// newFill returns one worker's row compile under ctx: the agent's Eq. 3
// profile, written by a Streamer of its own, or — for the Product
// representation — every rating of the agent, negative ones included, at
// the rated product's catalog ordinal (every rated product is cataloged:
// SetRating enforces it).
func (f *Filter) newFill(ctx context.Context) profmat.Fill {
	comm, sym := f.comm, f.comm.Symbols()
	if f.gen != nil {
		st := f.gen.NewStreamer()
		return func(ord int32, g *profmat.Gatherer) error {
			return st.ProfileDense(ctx, sym.AgentAt(ord), comm, g)
		}
	}
	return func(ord int32, g *profmat.Gatherer) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for p, v := range sym.AgentAt(ord).Ratings {
			g.Add(comm.Product(p).Ord(), v)
		}
		return nil
	}
}

// Matrix returns the compiled profile matrix, or nil before the first
// Compile/Similarity. The matrix is immutable; the engine's delta swap
// feeds it back through CompileDelta.
func (f *Filter) Matrix() *profmat.Matrix {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mat
}

// matrix returns the compiled matrix, building it on first use.
func (f *Filter) matrix(ctx context.Context) (*profmat.Matrix, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compileLocked(ctx, nil, nil)
}

// coarseMatrix returns the compiled matrix folded onto super-topics at
// the given depth (profile.Generator.AncestorsAt), building it on first
// use.
func (f *Filter) coarseMatrix(ctx context.Context, depth int) (*profmat.Matrix, error) {
	if f.gen == nil {
		return nil, fmt.Errorf("cf: representation %v has no taxonomy to fold along", f.opt.Representation)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.coarse[depth]; ok {
		return c, nil
	}
	mat, err := f.compileLocked(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	if f.coarse == nil {
		f.coarse = make(map[int]*profmat.Matrix)
	}
	c := profmat.Fold(mat, f.gen.AncestorsAt(depth))
	f.coarse[depth] = c
	return c, nil
}

// emptyRow stands in for unknown agents, yielding the undefined
// similarity an empty profile does.
var emptyRow = &profmat.Row{}

// rowAt returns the compiled row of the agent with the given ordinal —
// a positional matrix lookup — or an empty row for ordinals the matrix
// does not know.
//
//swrec:hotpath
func rowAt(mat *profmat.Matrix, ord int32) *profmat.Row {
	if r := mat.Row(ord); r != nil {
		return r
	}
	return emptyRow
}

// rowOf returns the compiled row for id: one community resolution to the
// agent's ordinal, then rowAt.
func (f *Filter) rowOf(mat *profmat.Matrix, id model.AgentID) *profmat.Row {
	if a := f.comm.Agent(id); a != nil {
		return rowAt(mat, a.Ord())
	}
	return emptyRow
}

// similarityScratch computes the configured measure of the scratch's
// loaded row against b.
func (f *Filter) similarityScratch(sc *profmat.Scratch, b *profmat.Row) (float64, bool) {
	switch f.opt.Measure {
	case Cosine:
		return sc.CosineTo(b)
	default:
		return sc.PearsonTo(b)
	}
}

// Similarity returns the similarity of a and b under the configured
// measure; ok is false when the measure is undefined for the pair (the
// profile-overlap failure the taxonomy representation is designed to
// avoid). Served from the compiled matrix, building it on first use.
func (f *Filter) Similarity(a, b model.AgentID) (float64, bool) {
	return f.SimilarityCtx(context.Background(), a, b)
}

// SimilarityCtx is Similarity with cancellation of the one-time compile
// step (the per-pair kernel itself is microseconds); a cancelled compile
// reports the pair undefined.
func (f *Filter) SimilarityCtx(ctx context.Context, a, b model.AgentID) (float64, bool) {
	mat, err := f.matrix(ctx)
	if err != nil {
		return 0, false
	}
	sc := f.scratch.Get(f.dims())
	defer f.scratch.Put(sc)
	sc.Load(f.rowOf(mat, a))
	return f.similarityScratch(sc, f.rowOf(mat, b))
}

// SimResult is one entry of a batch similarity scan.
type SimResult struct {
	Sim float64
	OK  bool
}

// Similarities computes the similarity of active against every peer in
// one scan, writing into out (which must be at least len(peers) long).
// Agents are addressed by community ordinal, so the scan hashes no URI.
// Checks ctx every 64 peers; on cancellation out is partial and ctx.Err()
// is returned.
func (f *Filter) Similarities(ctx context.Context, active int32, peers []int32, out []SimResult) error {
	mat, err := f.matrix(ctx)
	if err != nil {
		return err
	}
	return f.scanAll(ctx, mat, active, peers, out)
}

// AncestorSimilarities is Similarities at super-topic resolution: the
// same scan over the matrix folded to the given taxonomy depth. It is an
// error for the Product representation, which has no taxonomy to fold
// along (Generator() == nil).
func (f *Filter) AncestorSimilarities(ctx context.Context, depth int, active int32, peers []int32, out []SimResult) error {
	mat, err := f.coarseMatrix(ctx, depth)
	if err != nil {
		return err
	}
	return f.scanAll(ctx, mat, active, peers, out)
}

// scanAll loads active's row of mat into a pooled scratch and scans the
// peers against it on the calling goroutine. A serving scan is at most
// R + 1 = 401 rows: a second worker would read the dense scratch lines
// the loading core has just dirtied, and measured slower than not having
// one. A caller with a list long enough to want two cores splits it —
// each call takes its own scratch.
func (f *Filter) scanAll(ctx context.Context, mat *profmat.Matrix, active int32, peers []int32, out []SimResult) error {
	sc := f.scratch.Get(f.dims())
	defer f.scratch.Put(sc)
	sc.Load(rowAt(mat, active))
	return f.scan(ctx, sc, mat, peers, out)
}

// scan fills out[i] with the similarity of the scratch's loaded row to
// the compiled row of peers[i], stopping at the next 64-peer boundary
// once ctx is done. Cosine scores four peers per kernel call, the last
// len(peers) % 4 one at a time.
//
//swrec:hotpath
func (f *Filter) scan(ctx context.Context, sc *profmat.Scratch, mat *profmat.Matrix, peers []int32, out []SimResult) error {
	i := 0
	if f.opt.Measure == Cosine {
		for ; i+4 <= len(peers); i += 4 {
			if i&63 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			p := peers[i : i+4]
			rows := [4]*profmat.Row{rowAt(mat, p[0]), rowAt(mat, p[1]), rowAt(mat, p[2]), rowAt(mat, p[3])}
			sims, oks := sc.CosineTo4(&rows)
			for j := range rows {
				out[i+j] = SimResult{Sim: sims[j], OK: oks[j]}
			}
		}
	}
	for ; i < len(peers); i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s, ok := f.similarityScratch(sc, rowAt(mat, peers[i]))
		out[i] = SimResult{Sim: s, OK: ok}
	}
	return ctx.Err()
}

// Neighbor is one similarity-ranked peer.
type Neighbor struct {
	Agent model.AgentID
	Sim   float64
}

// NearestNeighbors ranks the candidate peers by similarity to a,
// descending, dropping pairs with undefined similarity, and returns at
// most k (all if k <= 0). The active agent itself is skipped if present
// among the candidates.
func (f *Filter) NearestNeighbors(a model.AgentID, candidates []model.AgentID, k int) []Neighbor {
	out := make([]Neighbor, 0, len(candidates))
	for _, c := range candidates {
		if c == a {
			continue
		}
		if s, ok := f.Similarity(a, c); ok {
			out = append(out, Neighbor{Agent: c, Sim: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Agent < out[j].Agent
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// DefinedPairFraction measures profile overlap quality (experiment E5):
// the fraction of distinct agent pairs among ids whose similarity is
// defined under the filter's measure. For Pearson over product vectors
// this is exactly the fraction of pairs with ≥2 co-rated products and
// non-degenerate variance.
func (f *Filter) DefinedPairFraction(ids []model.AgentID) float64 {
	if len(ids) < 2 {
		return 0
	}
	defined, total := 0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			total++
			if _, ok := f.Similarity(ids[i], ids[j]); ok {
				defined++
			}
		}
	}
	return float64(defined) / float64(total)
}
