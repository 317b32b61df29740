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
	"runtime"
	"sort"
	"sync"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/sparse"
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

// Filter computes and caches interest profiles and pairwise similarities
// over one community. It is safe for concurrent use after construction.
type Filter struct {
	comm *model.Community //nolint:snapshotpin -- owned by the core.Recommender built for one snapshot; never outlives its epoch
	opt  Options
	gen  *profile.Generator

	mu sync.Mutex
	// profiles caches built profile vectors keyed by agent ordinal —
	// resolved once at the public entry, never re-hashed as a string.
	profiles map[int32]sparse.Vector
	// mat is the compiled CSR profile matrix (internal/profmat), built
	// once per filter for taxonomy-space representations and consulted by
	// every similarity before the map-based fallback. Guarded by mu; nil
	// until the first Compile/Similarity. The Product representation
	// never compiles (its dimension space grows with interning).
	mat *profmat.Matrix
	// scratch pools *profmat.Scratch instances for batch scans: the
	// active row is scattered into a dense image once, then every peer
	// costs a single pass over its own postings.
	scratch sync.Pool
}

// New creates a filter over the community. Taxonomy-based representations
// require the community to carry a taxonomy.
func New(comm *model.Community, opt Options) (*Filter, error) {
	f := &Filter{
		comm:     comm,
		opt:      opt,
		profiles: make(map[int32]sparse.Vector),
	}
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

// Generator returns the profile generator backing taxonomy-space
// representations, or nil for the Product representation. The strategy
// ladder's taxonomy-ancestor rung uses it to generalize cached profiles
// without rebuilding them.
func (f *Filter) Generator() *profile.Generator { return f.gen }

// Compare applies the filter's configured measure to two caller-supplied
// profile vectors — the map-vector analogue of similarityRows for vectors
// the filter does not cache, such as the generalized (super-topic)
// profiles of the strategy ladder's taxonomy-ancestor rung. ok is false
// when the measure is undefined for the pair.
func (f *Filter) Compare(a, b sparse.Vector) (float64, bool) {
	switch f.opt.Measure {
	case Cosine:
		return sparse.Cosine(a, b)
	default:
		return sparse.Pearson(a, b)
	}
}

// productOrd maps a rated product to its catalog ordinal — the dense
// dimension of the Product representation. Every rated product is
// cataloged (SetRating enforces it, Merge registers bare products), so
// the record is always present and the ordinal is stable for the life of
// the community lineage.
func (f *Filter) productOrd(p model.ProductID) int32 {
	return f.comm.Product(p).Ord()
}

// ProfileOf returns (building and caching on first use) the profile vector
// of agent id under the filter's representation. Unknown agents yield an
// empty vector, uncached.
func (f *Filter) ProfileOf(id model.AgentID) sparse.Vector {
	a := f.comm.Agent(id)
	if a == nil {
		return sparse.New(0)
	}
	return f.profileOf(a)
}

// profileOf is ProfileOf after the one string resolution: the cache is
// keyed by the agent's ordinal.
func (f *Filter) profileOf(a *model.Agent) sparse.Vector {
	f.mu.Lock()
	defer f.mu.Unlock()
	ord := a.Ord()
	if v, ok := f.profiles[ord]; ok {
		return v
	}
	var v sparse.Vector
	if f.opt.Representation == Product {
		v = profile.ProductVector(a, f.productOrd)
	} else {
		v = f.gen.Profile(a, f.comm)
	}
	f.profiles[ord] = v
	return v
}

// Invalidate drops the cached profile of id (call after its ratings
// change). The compiled matrix, if any, is dropped wholesale and rebuilt
// on next use — mutating communities in place is the exception (eval
// harnesses); serving snapshots are immutable and use CompileDelta.
func (f *Filter) Invalidate(id model.AgentID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if a := f.comm.Agent(id); a != nil {
		delete(f.profiles, a.Ord())
	}
	f.mat = nil
}

// batchWorkers sizes the batch-similarity fan-out: roughly one worker
// per 128 peers, bounded by GOMAXPROCS. Batches too small to amortize
// goroutine startup run inline.
func batchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if m := (n + 127) / 128; w > m {
		w = m
	}
	return w
}

// Compilable reports whether the filter's representation admits a
// compiled profile matrix: taxonomy-space representations do, the
// Product representation (whose dimension space grows with product
// interning) does not.
func (f *Filter) Compilable() bool { return f.opt.Representation != Product }

// Compile builds the compiled profile matrix for every agent of the
// community, after which similarities run as zero-allocation merge-joins.
// Idempotent; concurrent callers serialize on the filter lock. No-op for
// the Product representation.
func (f *Filter) Compile(ctx context.Context) error {
	return f.CompileDelta(ctx, nil, nil)
}

// CompileDelta is Compile carrying over the rows of prev for agent
// ordinals dirty reports false on — the epoch-swap fast path
// (internal/engine). A nil prev or dirty compiles from scratch. On ctx
// expiry the filter is left uncompiled and the next call retries.
func (f *Filter) CompileDelta(ctx context.Context, prev *profmat.Matrix, dirty func(int32) bool) error {
	if !f.Compilable() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mat != nil {
		return nil
	}
	mat, err := profmat.BuildDelta(ctx, f.comm, f.gen, f.gen.Taxonomy().Len(), 0, prev, dirty)
	if err != nil {
		return err
	}
	f.mat = mat
	return nil
}

// Matrix returns the compiled profile matrix, or nil before Compile (and
// always for the Product representation). The matrix is immutable; the
// engine's delta swap feeds it back through CompileDelta.
func (f *Filter) Matrix() *profmat.Matrix {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mat
}

// matrix returns the compiled matrix, building it on first use for
// compilable representations. Returns nil when the representation cannot
// compile or the build was cancelled.
func (f *Filter) matrix(ctx context.Context) *profmat.Matrix {
	if !f.Compilable() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mat == nil {
		mat, err := profmat.BuildDelta(ctx, f.comm, f.gen, f.gen.Taxonomy().Len(), 0, nil, nil)
		if err != nil {
			return nil
		}
		f.mat = mat
	}
	return f.mat
}

// emptyRow stands in for unknown agents on the compiled path, yielding
// the same undefined-similarity result the empty map vector does.
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

// similarityRows computes the configured measure over two compiled rows.
func (f *Filter) similarityRows(a, b *profmat.Row) (float64, bool) {
	switch f.opt.Measure {
	case Cosine:
		return profmat.Cosine(a, b)
	default:
		return profmat.Pearson(a, b)
	}
}

// getScratch returns a pooled dense scratch covering the taxonomy
// dimension space; return it with f.scratch.Put when done.
func (f *Filter) getScratch() *profmat.Scratch {
	dims := f.gen.Taxonomy().Len()
	if sc, ok := f.scratch.Get().(*profmat.Scratch); ok && sc.Dims() >= dims {
		return sc
	}
	return profmat.NewScratch(dims)
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
// avoid). Compilable representations serve from the compiled matrix
// (building it on first use); Product falls back to the map vectors.
func (f *Filter) Similarity(a, b model.AgentID) (float64, bool) {
	return f.SimilarityCtx(context.Background(), a, b)
}

// SimilarityCtx is Similarity with cancellation of the one-time compile
// step (the per-pair kernel itself is microseconds).
func (f *Filter) SimilarityCtx(ctx context.Context, a, b model.AgentID) (float64, bool) {
	if mat := f.matrix(ctx); mat != nil {
		return f.similarityRows(f.rowOf(mat, a), f.rowOf(mat, b))
	}
	va, vb := f.ProfileOf(a), f.ProfileOf(b)
	switch f.opt.Measure {
	case Cosine:
		return sparse.Cosine(va, vb)
	default:
		return sparse.Pearson(va, vb)
	}
}

// SimResult is one entry of a batch similarity scan.
type SimResult struct {
	Sim float64
	OK  bool
}

// Similarities computes the similarity of active against every peer in
// one scan, writing into out (which must be at least len(peers) long).
// Agents are addressed by community ordinal, so the scan hashes no URI.
// On the compiled path the scan is embarrassingly parallel over immutable
// rows and fans out across a bounded worker pool when enough peers and
// CPUs make it worthwhile; the fallback path runs sequentially under the
// profile cache lock. Checks ctx at chunk boundaries; on cancellation out
// is partial and ctx.Err() is returned.
func (f *Filter) Similarities(ctx context.Context, active int32, peers []int32, out []SimResult) error {
	mat := f.matrix(ctx)
	if mat == nil {
		sym := f.comm.Symbols()
		act, _ := sym.AgentID(active)
		for i, p := range peers {
			if i&15 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			id, _ := sym.AgentID(p)
			s, ok := f.Similarity(act, id)
			out[i] = SimResult{Sim: s, OK: ok}
		}
		return ctx.Err()
	}
	sc := f.getScratch()
	sc.Load(rowAt(mat, active))
	defer f.scratch.Put(sc)
	workers := batchWorkers(len(peers))
	if workers <= 1 {
		return f.scan(ctx, sc, mat, peers, out)
	}
	// The loaded scratch is read-only across workers after Load.
	var wg sync.WaitGroup
	chunk := (len(peers) + workers - 1) / workers
	for lo := 0; lo < len(peers); lo += chunk {
		hi := min(lo+chunk, len(peers))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			_ = f.scan(ctx, sc, mat, peers[lo:hi], out[lo:hi]) // the caller reports ctx.Err() once for all chunks
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// scan fills out[i] with the similarity of the scratch's loaded row to
// the compiled row of peers[i], stopping at the next 64-peer boundary
// once ctx is done.
//
//swrec:hotpath
func (f *Filter) scan(ctx context.Context, sc *profmat.Scratch, mat *profmat.Matrix, peers []int32, out []SimResult) error {
	for i, p := range peers {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s, ok := f.similarityScratch(sc, rowAt(mat, p))
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
