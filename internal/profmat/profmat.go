// Package profmat holds the compiled form of an interest profile — a
// row of sorted int32 dimensions beside float64 scores, with the norm,
// entry sum and nnz precomputed — and everything that reads or writes
// one: the Gatherer every row is accumulated in, the per-snapshot CSR
// Matrix of one row per agent in shared backing arenas, its super-topic
// fold, and the Scratch similarity kernels. A row is the only form an
// interest profile takes: the Eq. 3 taxonomy profiles internal/profile
// writes, product-descriptor rows, and the plain product-rating vectors
// internal/cf compiles are all gathered here, and every similarity, the
// super-topic matrix (Fold) and the /profile endpoint read rows. The
// package knows nothing of agents or taxonomies: BuildDelta takes the
// per-row compile from its caller.
//
// Rows are immutable once built. Delta rebuilds (BuildDelta) carry the
// unchanged rows of the previous matrix by value — the carried slices
// alias the old arenas, which the garbage collector keeps alive for as
// long as any row references them — so an epoch swap after a small ingest
// batch recompiles only the dirty agents.
package profmat

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Row is one agent's compiled profile: parallel slices of sorted
// dimension ids and scores, plus the aggregates every similarity kernel
// would otherwise recompute. The zero value is an empty profile.
type Row struct {
	Keys []int32   // sorted ascending, no duplicates
	Vals []float64 // Vals[i] is the score of dimension Keys[i]
	Norm float64   // Euclidean norm over the entries
	Sum  float64   // plain sum over the entries
}

// NNZ returns the number of stored dimensions.
func (r *Row) NNZ() int { return len(r.Keys) }

// Mean returns the mean over the stored entries (0 for an empty row).
func (r *Row) Mean() float64 {
	if len(r.Keys) == 0 {
		return 0
	}
	return r.Sum / float64(len(r.Keys))
}

// TopK returns the positions (indices into Keys/Vals) of the k largest
// entries by value, descending, ties by ascending key — the order the
// /profile endpoint and the CLI list top interests in. k <= 0 or
// k >= NNZ returns every position. It selects rather than sorts: one pass over the row keeps the k best seen
// in a heap with the last-ranked of them on top, so the cost is
// O(NNZ log k) and the only allocation is the k positions returned.
func (r *Row) TopK(k int) []int32 {
	n := len(r.Keys)
	if k <= 0 || k > n {
		k = n
	}
	// ahead reports whether position a ranks before position b.
	ahead := func(a, b int32) bool {
		if c := cmp.Compare(r.Vals[a], r.Vals[b]); c != 0 {
			return c > 0
		}
		return a < b // keys ascend with position
	}
	// The heap starts with the last k positions and the scan runs
	// backwards: an Eq. 3 row's keys are topic handles, which a taxonomy
	// hands out parents first, and scores grow toward the leaves
	// (Example 1), so the large entries sit at the back. Seeded with them,
	// most candidates lose to the heap's root at one compare. The order
	// ahead defines is total, so the scan order changes nothing returned.
	top := make([]int32, k)
	for i := range top {
		top[i] = int32(n - k + i)
	}
	// sink restores the heap below i: no entry ranks ahead of a child.
	sink := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(top) {
				return
			}
			if c+1 < len(top) && ahead(top[c], top[c+1]) {
				c++
			}
			if !ahead(top[i], top[c]) {
				return
			}
			top[i], top[c] = top[c], top[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		sink(i)
	}
	for i := n - k - 1; i >= 0; i-- {
		// Most entries lose to the last-ranked kept one on value alone;
		// a NaN or a tie goes on to ahead, which orders those.
		if r.Vals[i] < r.Vals[top[0]] {
			continue
		}
		if ahead(int32(i), top[0]) {
			top[0] = int32(i)
			sink(0)
		}
	}
	// Unload the heap from the back: each step moves the last-ranked of
	// what is left behind everything still in it.
	for end := k - 1; end > 0; end-- {
		top[0], top[end] = top[end], top[0]
		top = top[:end]
		sink(0)
	}
	return top[:k]
}

// Matrix is the compiled profile matrix of one snapshot. It is immutable
// after Build/BuildDelta and safe for concurrent readers. It deliberately
// holds no reference to the community it was compiled from: rows are
// self-contained, so an old matrix pins only its own arenas, not an
// entire superseded epoch.
type Matrix struct {
	rows []Row
	// built counts the rows compiled from scratch (vs carried from a
	// previous matrix) — observability for the delta-swap path.
	built int
}

// Len returns the number of rows.
func (m *Matrix) Len() int { return len(m.rows) }

// Built returns how many rows were compiled from scratch (the rest were
// carried over from the previous epoch's matrix).
func (m *Matrix) Built() int { return m.built }

// Row returns the compiled row of the agent with the given community
// ordinal, or nil when the ordinal is outside the compiled range. Rows
// are positional: row i is agent ordinal i of the source community, so
// the lookup is a bounds check, not a hash.
//
//swrec:hotpath
func (m *Matrix) Row(ord int32) *Row {
	if m == nil || ord < 0 || int(ord) >= len(m.rows) {
		return nil
	}
	return &m.rows[ord]
}

// Gatherer is a dense score accumulator over the dimension space with a
// word-packed occupancy bitmap. Add sums a dimension's increments in call
// order; Gather enumerates the touched dimensions in ascending order
// straight off the bitmap — no sort, no full accumulator scan — appends
// them to two arenas as a row, and leaves the gatherer empty for the
// next one. Rows gathered earlier stay valid: an arena that grows moves
// on to a new array and leaves theirs in place. A Gatherer is not safe
// for concurrent use.
type Gatherer struct {
	acc  []float64 // dense score accumulator, gated by bm
	bm   []uint64  // occupancy bitmap, one bit per dimension
	keys []int32   // arena the gathered keys append to
	vals []float64
}

// NewGatherer returns an empty gatherer over dims dimensions whose arenas
// start with room for capHint entries.
func NewGatherer(dims, capHint int) *Gatherer {
	return &Gatherer{
		acc:  make([]float64, dims),
		bm:   make([]uint64, (dims+63)/64),
		keys: make([]int32, 0, capHint),
		vals: make([]float64, 0, capHint),
	}
}

// Add accumulates v into dimension d: the first touch since the last
// Gather stores, later ones sum in call order.
func (g *Gatherer) Add(d int32, v float64) {
	if w, m := d>>6, uint64(1)<<(uint(d)&63); g.bm[w]&m == 0 {
		g.bm[w] |= m
		g.acc[d] = v
	} else {
		g.acc[d] += v
	}
}

// Gather appends the touched dimensions and their totals to the arenas
// in ascending dimension order, clears the bitmap behind it, and returns
// them as a row, with the aggregates summed in that same order.
func (g *Gatherer) Gather() Row {
	start := len(g.keys)
	var norm2, sum float64
	for wi, w := range g.bm {
		if w == 0 {
			continue
		}
		g.bm[wi] = 0
		base := int32(wi << 6)
		for w != 0 {
			d := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			v := g.acc[d]
			g.keys = append(g.keys, d)
			g.vals = append(g.vals, v)
			norm2 += float64(v * v)
			sum += v
		}
	}
	return Row{
		Keys: g.keys[start:len(g.keys):len(g.keys)],
		Vals: g.vals[start:len(g.vals):len(g.vals)],
		Norm: math.Sqrt(norm2),
		Sum:  sum,
	}
}

// Reset drops whatever was added since the last Gather and empties the
// arenas, so a pooled gatherer starts its next use as a new one would.
// Every row gathered before it is invalidated: its entries are
// overwritten by the next rows gathered.
func (g *Gatherer) Reset() {
	clear(g.bm)
	g.keys, g.vals = g.keys[:0], g.vals[:0]
}

// Fill writes row ord — an agent's profile, a product's descriptors —
// into g: the per-row compile BuildDelta runs for every row it does not
// carry. An error aborts the build; a fill that can be cancelled
// captures its caller's context and returns its error.
type Fill func(ord int32, g *Gatherer) error

// rowCapHint sizes a worker's arenas up front: the expected nnz per row
// times the rows the worker will compile. Underestimates grow normally;
// the point is skipping the doubling churn from zero, which at 400
// agents a build otherwise re-copies the arenas ~15 times.
const rowCapHint = 48

// BuildDelta compiles a matrix of n rows over dims dimensions, carrying
// over the rows of prev for ordinals where dirty reports false. A nil
// prev or nil dirty compiles everything from scratch. Every other row is
// compiled by a Fill from newFill — one per worker, so a fill may keep
// scratch — into that worker's gatherer; carried rows alias the previous
// arenas. prev must come from an earlier epoch of the same community
// lineage: communities only append agents, so the previous matrix's rows
// are a prefix of the new one under identical ordinals, and any ordinal
// at or past prev.Len() is a new agent that compiles regardless of dirty.
// workers bounds the compile parallelism; values below 1 mean GOMAXPROCS.
// On a fill's error the partial matrix is discarded and the error
// returned.
func BuildDelta(n, dims, workers int, prev *Matrix, dirty func(int32) bool, newFill func() Fill) (*Matrix, error) {
	m := &Matrix{rows: make([]Row, n)}
	var todo []int32 // row indices (= agent ordinals) that need compiling
	for i := range n {
		if prev != nil && dirty != nil && i < prev.Len() && !dirty(int32(i)) {
			m.rows[i] = prev.rows[i]
			continue
		}
		todo = append(todo, int32(i))
	}
	m.built = len(todo)
	if len(todo) == 0 {
		return m, nil
	}

	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(todo))
	// Contiguous chunks, one fill and gatherer (and arena pair) per
	// worker: each worker writes a disjoint range of m.rows, so no
	// locking is needed, and the compiled contents are deterministic
	// regardless of scheduling because every row depends only on its own
	// agent.
	compile := func(todo []int32) error {
		fill, g := newFill(), NewGatherer(dims, len(todo)*rowCapHint)
		for _, ri := range todo {
			if err := fill(ri, g); err != nil {
				return err
			}
			m.rows[ri] = g.Gather()
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (len(todo) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(todo))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, todo []int32) {
			defer wg.Done()
			errs[w] = compile(todo)
		}(w, todo[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fold returns mat at a coarser resolution: every row keeps its position,
// each key k becomes remap[k], and the values that land on one key are
// summed in ascending order of the keys they came from, so the folded
// matrix is bit-identical across runs. A key outside remap is dropped.
// With remap = profile.Generator.AncestorsAt(depth) this is the
// super-topic matrix the strategy ladder's taxonomy-ancestor rung scans.
func Fold(mat *Matrix, remap []int32) *Matrix {
	dims := 0
	for _, t := range remap {
		dims = max(dims, int(t)+1)
	}
	g := NewGatherer(dims, 0)
	out := &Matrix{rows: make([]Row, len(mat.rows)), built: len(mat.rows)}
	for i := range mat.rows {
		r := &mat.rows[i]
		for k, key := range r.Keys {
			if key >= 0 && int(key) < len(remap) {
				g.Add(remap[key], r.Vals[k])
			}
		}
		out.rows[i] = g.Gather()
	}
	// A row gathered before an arena grew aliases the outgrown array;
	// re-slice every row off the final arenas so only those stay live.
	off := 0
	for i := range out.rows {
		end := off + len(out.rows[i].Keys)
		out.rows[i].Keys = g.keys[off:end:end]
		out.rows[i].Vals = g.vals[off:end:end]
		off = end
	}
	return out
}

// Scratch computes every similarity between rows: a reusable dense image
// of one row, which Load scatters once, after which CosineTo/PearsonTo
// against each peer run in a single pass over the peer's postings with
// O(1) lookups. Every sum runs in the peer's ascending key order, so the
// same pair gives the same bits on every call, and the package's tests
// pin each kernel bit for bit to a textbook merge-join over the common
// dimensions. The image is zero outside the loaded row — Load
// first takes the previous row back out — so the cosine dot needs no
// occupancy test; Pearson, which counts co-present dimensions, reads the
// generation stamps. A re-Load is O(nnz of both rows). Load is not safe
// for concurrent use, but any number of goroutines may call
// CosineTo/PearsonTo concurrently after a Load — they only read.
type Scratch struct {
	vals  []float64
	stamp []int32
	gen   int32
	row   *Row // the loaded row, source of the precomputed norm
}

// NewScratch returns a scratch covering dims dimensions — every key of
// every row passed to Load/CosineTo/PearsonTo must be below dims.
func NewScratch(dims int) *Scratch {
	return &Scratch{vals: make([]float64, dims), stamp: make([]int32, dims)}
}

// Pool recycles scratches. Put unloads a scratch first, so a pooled one
// holds no reference into the rows it last compared. The zero value is
// ready for use; hold it by pointer in anything that must be collectable,
// since the runtime keeps a used pool registered for up to two GC cycles.
type Pool struct{ p sync.Pool }

// Get returns a pooled scratch covering at least dims dimensions, or a
// new one.
func (p *Pool) Get(dims int) *Scratch {
	if sc, ok := p.p.Get().(*Scratch); ok && sc.Dims() >= dims {
		return sc
	}
	return NewScratch(dims)
}

// Put unloads sc and returns it to the pool.
func (p *Pool) Put(sc *Scratch) {
	sc.Unload()
	p.p.Put(sc)
}

// Dims returns the dimension capacity.
func (s *Scratch) Dims() int { return len(s.vals) }

// Load scatters r into the dense image, replacing any previous load.
//
//swrec:hotpath
func (s *Scratch) Load(r *Row) {
	s.gen++
	if s.gen == 0 { // int32 wraparound: reset stamps once per 4G loads
		clear(s.stamp)
		s.gen = 1
	}
	s.Unload()
	for k, key := range r.Keys {
		s.vals[key] = r.Vals[k]
		s.stamp[key] = s.gen
	}
	s.row = r
}

// Unload takes the loaded row back out of the image and forgets it, so a
// pooled scratch holds no reference into the matrix it last scanned.
func (s *Scratch) Unload() {
	if s.row != nil {
		for _, key := range s.row.Keys {
			s.vals[key] = 0
		}
		s.row = nil
	}
}

// CosineTo returns the cosine similarity of the loaded row and b in
// [-1, 1], missing entries counting as zero; ok is false when either norm
// is zero (the measure is undefined, the ⊥ of §3.1 carried through). The
// norms are the precomputed row aggregates. The dot runs over every
// posting of b without testing occupancy: a dimension the loaded row
// lacks holds zero and adds ±0, which leaves the running sum's bits
// unchanged, so the result equals the merge-join over the common
// dimensions exactly.
//
//swrec:hotpath
func (s *Scratch) CosineTo(b *Row) (sim float64, ok bool) {
	a := s.row
	if a.Norm == 0 || b.Norm == 0 {
		return 0, false
	}
	vals := s.vals
	bv := b.Vals[:len(b.Keys)]
	var dot float64
	for k, key := range b.Keys {
		dot += float64(vals[key] * bv[k])
	}
	return clamp(dot / (a.Norm * b.Norm)), true
}

// CosineTo4 returns CosineTo of each of four rows, scanned together: the
// four dots run interleaved up to the shortest row's length, then each
// finishes alone. Every dot still sums its own row's postings in that
// row's order, so each result equals CosineTo's bit for bit; what the
// interleaving buys is four independent add chains, and their gathers
// from the image, in flight at once instead of one.
//
//swrec:hotpath
func (s *Scratch) CosineTo4(b *[4]*Row) (sim [4]float64, ok [4]bool) {
	a, vals := s.row, s.vals
	if a.Norm == 0 {
		return sim, ok
	}
	k0, k1, k2, k3 := b[0].Keys, b[1].Keys, b[2].Keys, b[3].Keys
	n := min(len(k0), len(k1), len(k2), len(k3))
	v0, v1, v2, v3 := b[0].Vals[:len(k0)], b[1].Vals[:len(k1)], b[2].Vals[:len(k2)], b[3].Vals[:len(k3)]
	var d0, d1, d2, d3 float64
	for i, key := range k0[:n] {
		d0 += float64(vals[key] * v0[i])
		d1 += float64(vals[k1[i]] * v1[i])
		d2 += float64(vals[k2[i]] * v2[i])
		d3 += float64(vals[k3[i]] * v3[i])
	}
	for i := n; i < len(k0); i++ {
		d0 += float64(vals[k0[i]] * v0[i])
	}
	for i := n; i < len(k1); i++ {
		d1 += float64(vals[k1[i]] * v1[i])
	}
	for i := n; i < len(k2); i++ {
		d2 += float64(vals[k2[i]] * v2[i])
	}
	for i := n; i < len(k3); i++ {
		d3 += float64(vals[k3[i]] * v3[i])
	}
	for j, dot := range [4]float64{d0, d1, d2, d3} {
		if nb := b[j].Norm; nb != 0 {
			sim[j], ok[j] = clamp(dot/(a.Norm*nb)), true
		}
	}
	return sim, ok
}

// PearsonTo returns Pearson's correlation coefficient of the loaded row
// and b over their co-present dimensions, the classic
// collaborative-filtering similarity [Shardanand & Maes 1995]; ok is
// false below two overlapping dimensions or under zero variance — the
// "low profile overlap" failure the taxonomy profiles remedy.
//
//swrec:hotpath
func (s *Scratch) PearsonTo(b *Row) (sim float64, ok bool) {
	g := s.gen
	var n int
	var sa, sb float64
	for k, key := range b.Keys {
		if s.stamp[key] == g {
			n++
			sa += s.vals[key]
			sb += b.Vals[k]
		}
	}
	if n < 2 {
		return 0, false
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	for k, key := range b.Keys {
		if s.stamp[key] == g {
			x, y := s.vals[key], b.Vals[k]
			cov += float64((x - ma) * (y - mb))
			va += float64((x - ma) * (x - ma))
			vb += float64((y - mb) * (y - mb))
		}
	}
	if va == 0 || vb == 0 {
		return 0, false
	}
	return clamp(cov / math.Sqrt(va*vb)), true
}

// clamp bounds floating-point drift into [-1, 1].
func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}
