package profmat_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/sparse"
	"swrec/internal/taxonomy"
)

func benchCommunity(t testing.TB) *model.Community {
	t.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = 60
	cfg.Products = 120
	comm, _ := datagen.Generate(cfg)
	return comm
}

// build compiles every agent's Eq. 3 profile under gen with the given
// worker count, carrying prev's rows where dirty reports false.
func build(t testing.TB, comm *model.Community, gen *profile.Generator, workers int, prev *profmat.Matrix, dirty func(int32) bool) *profmat.Matrix {
	t.Helper()
	newFill := func() profmat.Fill {
		st := gen.NewStreamer()
		return func(ord int32, g *profmat.Gatherer) error {
			return st.ProfileDense(context.Background(), comm.Symbols().AgentAt(ord), comm, g)
		}
	}
	mat, err := profmat.BuildDelta(comm.NumAgents(), comm.Taxonomy().Len(), workers, prev, dirty, newFill)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// close12 tolerates 1e-12 absolute or relative: profile scores run to
// s = 1000, where 1e-12 absolute is a handful of ulps, and the reference
// sums each topic's increments in another order.
func close12(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// eq3Reference is §3.3's profile of agent a written out from the text,
// sharing no code with the profile package's loop and reading no
// PathTable: s splits over the positively rated products with
// descriptors (evenly, or by rating value under WeightByRating), each
// product's share evenly over its descriptors, and each descriptor's
// share over its primary path, found by walking Taxonomy.Parents up to ⊤.
// Under Eq3 the descriptor's raw score is 1 and each super-topic's is its
// child's over sib(child)+1, normalised so the path sums to the share;
// Uniform splits the share evenly over the path; Flat gives it all to the
// descriptor.
func eq3Reference(comm *model.Community, a *model.Agent, gen *profile.Generator) map[int32]float64 {
	tax := comm.Taxonomy()
	type contrib struct {
		topics []taxonomy.Topic
		weight float64
	}
	var contribs []contrib
	var total float64
	for _, rs := range comm.RatingStatements(a) {
		v, p := rs.Value, comm.Product(rs.Product)
		if v <= 0 || len(p.Topics) == 0 {
			continue
		}
		w := 1.0
		if gen.WeightByRating {
			w = v
		}
		contribs = append(contribs, contrib{p.Topics, w})
		total += w
	}
	out := map[int32]float64{}
	for _, c := range contribs {
		share := gen.Score * c.weight / total / float64(len(c.topics))
		for _, d := range c.topics {
			path := []taxonomy.Topic{d} // descriptor first, ⊤ last
			for ps := tax.Parents(d); len(ps) > 0; ps = tax.Parents(ps[0]) {
				path = append(path, ps[0])
			}
			switch gen.Mode {
			case profile.Flat:
				out[int32(d)] += share
			case profile.Uniform:
				for _, p := range path {
					out[int32(p)] += share / float64(len(path))
				}
			default:
				raw, sum := make([]float64, len(path)), 1.0
				raw[0] = 1
				for i := 1; i < len(path); i++ {
					raw[i] = raw[i-1] / float64(tax.Siblings(path[i-1])+1)
					sum += raw[i]
				}
				for i, p := range path {
					out[int32(p)] += share * raw[i] / sum
				}
			}
		}
	}
	return out
}

// TestBuildMatchesGeneratorProfiles checks the compiled rows of every
// propagation setting against the textbook Eq. 3 reference: the same
// dimensions exactly, scores and the norm/sum aggregates within 1e-12.
func TestBuildMatchesGeneratorProfiles(t *testing.T) {
	comm := benchCommunity(t)
	settings := map[string]func(*profile.Generator){
		"eq3":              func(*profile.Generator) {},
		"uniform":          func(g *profile.Generator) { g.Mode = profile.Uniform },
		"flat":             func(g *profile.Generator) { g.Mode = profile.Flat },
		"weight-by-rating": func(g *profile.Generator) { g.WeightByRating = true },
	}
	for name, set := range settings {
		gen := profile.New(comm.Taxonomy())
		set(gen)
		mat := build(t, comm, gen, 0, nil, nil)
		if mat.Len() != comm.NumAgents() || mat.Built() != comm.NumAgents() {
			t.Fatalf("%s: matrix len=%d built=%d, want %d", name, mat.Len(), mat.Built(), comm.NumAgents())
		}
		nonEmpty := 0
		for _, id := range comm.Agents() {
			row := mat.Row(comm.Agent(id).Ord())
			want := eq3Reference(comm, comm.Agent(id), gen)
			if len(want) != row.NNZ() {
				t.Fatalf("%s, agent %s: nnz %d, reference %d", name, id, row.NNZ(), len(want))
			}
			var norm2, sum float64
			for i, k := range row.Keys {
				w, ok := want[k]
				if !ok || !close12(row.Vals[i], w) {
					t.Fatalf("%s, agent %s: dimension %d = %v, reference (%v, %v)", name, id, k, row.Vals[i], w, ok)
				}
				norm2 += w * w
				sum += w
			}
			if !close12(row.Norm, math.Sqrt(norm2)) || !close12(row.Sum, sum) {
				t.Fatalf("%s, agent %s: norm/sum (%v,%v), reference (%v,%v)", name, id, row.Norm, row.Sum, math.Sqrt(norm2), sum)
			}
			if row.NNZ() > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("%s: every row is empty", name)
		}
	}
}

// TestBuildDeltaCarriesCleanRows pins the epoch-swap fast path: rows of
// clean agents are carried into the new matrix by value (aliasing the
// previous arenas), and only dirty agents are recompiled.
func TestBuildDeltaCarriesCleanRows(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	prev := build(t, comm, gen, 0, nil, nil)
	dirtyID := comm.Agents()[5]
	dirtyOrd := comm.Agent(dirtyID).Ord()
	next := build(t, comm, gen, 0, prev, func(ord int32) bool { return ord == dirtyOrd })
	if next.Built() != 1 {
		t.Fatalf("Built = %d, want 1", next.Built())
	}
	for _, id := range comm.Agents() {
		ord := comm.Agent(id).Ord()
		pr, nr := prev.Row(ord), next.Row(ord)
		if nr.NNZ() != pr.NNZ() {
			t.Fatalf("agent %s: nnz changed %d -> %d", id, pr.NNZ(), nr.NNZ())
		}
		for i := range nr.Keys {
			if nr.Keys[i] != pr.Keys[i] || nr.Vals[i] != pr.Vals[i] {
				t.Fatalf("agent %s: entry %d differs after delta build", id, i)
			}
		}
		carried := pr.NNZ() > 0 && nr.NNZ() > 0 && &pr.Vals[0] == &nr.Vals[0]
		if id == dirtyID && carried {
			t.Fatalf("dirty agent %s aliases the previous arena", id)
		}
		if id != dirtyID && pr.NNZ() > 0 && !carried {
			t.Fatalf("clean agent %s was recompiled", id)
		}
	}
}

// sameRows fails unless a and b hold bit-identical rows.
func sameRows(t *testing.T, what string, a, b *profmat.Matrix) {
	t.Helper()
	for ord := int32(0); int(ord) < a.Len(); ord++ {
		ra, rb := a.Row(ord), b.Row(ord)
		if ra.NNZ() != rb.NNZ() || ra.Norm != rb.Norm || ra.Sum != rb.Sum {
			t.Fatalf("%s: row %d differs", what, ord)
		}
		for i := range ra.Keys {
			if ra.Keys[i] != rb.Keys[i] || ra.Vals[i] != rb.Vals[i] {
				t.Fatalf("%s: row %d entry %d differs", what, ord, i)
			}
		}
	}
}

// TestBuildDeterministicAcrossWorkerCounts: the compiled contents must
// not depend on parallelism.
func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	base := build(t, comm, gen, 1, nil, nil)
	for _, workers := range []int{2, 3, 8} {
		sameRows(t, fmt.Sprintf("workers=%d", workers), base, build(t, comm, gen, workers, nil, nil))
	}
}

// TestBuildWorkersShareFirstTableUse: BuildDelta's workers ask a fresh
// taxonomy for its Eq. 3 table at once, and the rows they compile equal a
// single worker's on an identical community (run under -race).
func TestBuildWorkersShareFirstTableUse(t *testing.T) {
	fresh, single := benchCommunity(t), benchCommunity(t)
	got := build(t, fresh, profile.New(fresh.Taxonomy()), 8, nil, nil)
	want := build(t, single, profile.New(single.Taxonomy()), 1, nil, nil)
	sameRows(t, "8 workers vs 1", want, got)
}

// TestFoldMatchesPerRowOracle folds a whole compiled matrix through a
// generator's ancestor array and compares every row with a map folded
// entry by entry in ascending key order: same keys, bit-equal values and
// aggregates — which also shows no row was left on an outgrown arena.
func TestFoldMatchesPerRowOracle(t *testing.T) {
	comm := benchCommunity(t)
	gen := profile.New(comm.Taxonomy())
	mat := build(t, comm, gen, 2, nil, nil)
	for _, depth := range []int{1, 2} {
		remap := gen.AncestorsAt(depth)
		coarse := profmat.Fold(mat, remap)
		if coarse.Len() != mat.Len() {
			t.Fatalf("depth %d: %d rows folded to %d", depth, mat.Len(), coarse.Len())
		}
		shrunk := false
		for i := 0; i < mat.Len(); i++ {
			src, got := mat.Row(int32(i)), coarse.Row(int32(i))
			want := sparse.New(0)
			for k, key := range src.Keys {
				want.Add(remap[key], src.Vals[k])
			}
			es := want.Entries()
			if got.NNZ() != len(es) {
				t.Fatalf("depth %d row %d: %d entries, oracle %d", depth, i, got.NNZ(), len(es))
			}
			var norm2, sum float64
			for j, e := range es {
				if got.Keys[j] != e.Key || got.Vals[j] != e.Value {
					t.Fatalf("depth %d row %d entry %d: (%d, %v), oracle %+v", depth, i, j, got.Keys[j], got.Vals[j], e)
				}
				norm2 += e.Value * e.Value
				sum += e.Value
			}
			if got.Norm != math.Sqrt(norm2) || got.Sum != sum {
				t.Fatalf("depth %d row %d: aggregates (%v, %v), oracle (%v, %v)", depth, i, got.Norm, got.Sum, math.Sqrt(norm2), sum)
			}
			shrunk = shrunk || got.NNZ() < src.NNZ()
		}
		if !shrunk {
			t.Fatalf("depth %d: no row lost a dimension to the fold", depth)
		}
	}
}

// TestProductRowsCarryAcrossDelta: product-rating rows (cf's Product
// representation) hold every rating at its product's ordinal and carry
// across a delta build like taxonomy rows do.
func TestProductRowsCarryAcrossDelta(t *testing.T) {
	comm := benchCommunity(t)
	ctx := context.Background()
	compile := func(prev *profmat.Matrix, dirty func(int32) bool) *profmat.Matrix {
		f, err := cf.New(comm, cf.Options{Representation: cf.Product})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CompileDelta(ctx, prev, dirty); err != nil {
			t.Fatal(err)
		}
		return f.Matrix()
	}
	full := compile(nil, nil)
	for i, id := range comm.Agents() {
		a, row := comm.Agent(id), full.Row(int32(i))
		if row.NNZ() != len(a.RatedProducts()) {
			t.Fatalf("%s: %d entries for %d ratings", id, row.NNZ(), len(a.RatedProducts()))
		}
		for k, key := range row.Keys {
			p, _ := comm.Symbols().ProductID(key)
			if v, ok := comm.Rating(id, p); !ok || v != row.Vals[k] {
				t.Fatalf("%s: dimension %d holds %v, rating of %s is %v (%v)", id, key, row.Vals[k], p, v, ok)
			}
		}
	}
	delta := compile(full, func(ord int32) bool { return ord == 3 })
	if delta.Built() != 1 {
		t.Fatalf("delta build compiled %d rows, want 1", delta.Built())
	}
	sameRows(t, "full vs delta", full, delta)
}
