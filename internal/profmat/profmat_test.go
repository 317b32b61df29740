package profmat

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"swrec/internal/sparse"
)

const dims = 256

// randVector draws a sparse vector over [0,dims) with nnz entries;
// values are quantized so cross-vector ties and exact overlaps occur.
func randVector(rng *rand.Rand, nnz int) sparse.Vector {
	v := sparse.New(nnz)
	for i := 0; i < nnz; i++ {
		v.Add(int32(rng.Intn(dims)), float64(rng.Intn(21)-10)/4)
	}
	return v
}

// TestKernelsMatchSparseDifferential is the differential property test:
// for random (and degenerate) vector pairs, the compiled merge-join
// kernels must agree with the map-based sparse kernels — exactly on the
// ok flag, within 1e-12 on the similarity.
func TestKernelsMatchSparseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := make([][2]sparse.Vector, 0, 300)
	for i := 0; i < 280; i++ {
		pairs = append(pairs, [2]sparse.Vector{
			randVector(rng, rng.Intn(60)),
			randVector(rng, rng.Intn(60)),
		})
	}
	// Degenerate shapes: empty vs empty, empty vs dense, identical,
	// single-dimension overlap, explicit-zero entries (zero norm), and
	// constant vectors (zero Pearson variance).
	empty := sparse.New(0)
	one := sparse.New(1)
	one.Add(7, 3)
	zeroed := sparse.New(2)
	zeroed.Add(3, 0)
	zeroed.Add(9, 0)
	flat := sparse.New(3)
	flat.Add(1, 2)
	flat.Add(5, 2)
	flat.Add(9, 2)
	shared := randVector(rng, 30)
	pairs = append(pairs,
		[2]sparse.Vector{empty, empty},
		[2]sparse.Vector{empty, shared},
		[2]sparse.Vector{shared, shared.Clone()},
		[2]sparse.Vector{one, one.Clone()},
		[2]sparse.Vector{one, shared},
		[2]sparse.Vector{zeroed, shared},
		[2]sparse.Vector{zeroed, zeroed.Clone()},
		[2]sparse.Vector{flat, flat.Clone()},
		[2]sparse.Vector{flat, shared},
	)

	for i, p := range pairs {
		ra, rb := FromVector(p[0]), FromVector(p[1])
		if dot, want := Dot(&ra, &rb), sparse.Dot(p[0], p[1]); !close12(dot, want) {
			t.Fatalf("pair %d: Dot = %v, sparse %v", i, dot, want)
		}
		if ov, want := Overlap(&ra, &rb), sparse.Overlap(p[0], p[1]); ov != want {
			t.Fatalf("pair %d: Overlap = %d, sparse %d", i, ov, want)
		}
		cs, csOK := Cosine(&ra, &rb)
		wcs, wcsOK := sparse.Cosine(p[0], p[1])
		if csOK != wcsOK || !close12(cs, wcs) {
			t.Fatalf("pair %d: Cosine = (%v,%v), sparse (%v,%v)", i, cs, csOK, wcs, wcsOK)
		}
		pe, peOK := Pearson(&ra, &rb)
		wpe, wpeOK := sparse.Pearson(p[0], p[1])
		if peOK != wpeOK || !close12(pe, wpe) {
			t.Fatalf("pair %d: Pearson = (%v,%v), sparse (%v,%v)", i, pe, peOK, wpe, wpeOK)
		}
	}
}

// close12 tolerates 1e-12 absolute or relative: sparse.Vector aggregates
// accumulate in map-iteration order, so for magnitudes ≫ 1 the run-to-run
// wobble scales with the value, not with an absolute constant.
func close12(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestScratchMatchesMergeJoinExactly pins the dense-scatter batch
// kernels to the merge-join ones bit for bit: Load + CosineTo/PearsonTo
// accumulate the same products in the same ascending-dimension order, so
// no tolerance is needed or granted.
func TestScratchMatchesMergeJoinExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := NewScratch(dims)
	for i := 0; i < 200; i++ {
		a := FromVector(randVector(rng, rng.Intn(80)))
		sc.Load(&a)
		for j := 0; j < 5; j++ {
			b := FromVector(randVector(rng, rng.Intn(80)))
			cs, csOK := sc.CosineTo(&b)
			wcs, wcsOK := Cosine(&a, &b)
			if cs != wcs || csOK != wcsOK {
				t.Fatalf("CosineTo = (%v,%v), merge-join (%v,%v)", cs, csOK, wcs, wcsOK)
			}
			pe, peOK := sc.PearsonTo(&b)
			wpe, wpeOK := Pearson(&a, &b)
			if pe != wpe || peOK != wpeOK {
				t.Fatalf("PearsonTo = (%v,%v), merge-join (%v,%v)", pe, peOK, wpe, wpeOK)
			}
		}
	}
}

// randRow draws a compiled row with nnz distinct keys below dims and
// unquantized values, so that a sum taken in any other order than the
// row's own would differ in its low bits; zero gives it all-zero values
// (a stored row of norm 0).
func randRow(rng *rand.Rand, nnz int, zero bool) Row {
	keys := rng.Perm(dims)[:nnz]
	slices.Sort(keys)
	r := Row{Keys: make([]int32, nnz), Vals: make([]float64, nnz)}
	var norm2 float64
	for i, k := range keys {
		r.Keys[i] = int32(k)
		if !zero {
			r.Vals[i] = rng.NormFloat64()
		}
		norm2 += r.Vals[i] * r.Vals[i]
		r.Sum += r.Vals[i]
	}
	r.Norm = math.Sqrt(norm2)
	return r
}

// TestCosineTo4MatchesCosineTo pins the four-row kernel to the one-row
// kernel bit for bit — compared with !=, no tolerance — over rows of
// unequal length, empty rows and rows of norm zero on either side.
func TestCosineTo4MatchesCosineTo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sc := NewScratch(dims)
	draw := func() Row {
		switch rng.Intn(8) {
		case 0:
			return Row{}
		case 1:
			return randRow(rng, 1+rng.Intn(20), true)
		default:
			return randRow(rng, rng.Intn(120), false)
		}
	}
	for i := 0; i < 500; i++ {
		a := draw()
		sc.Load(&a)
		var rows [4]Row
		for j := range rows {
			rows[j] = draw()
		}
		b := [4]*Row{&rows[0], &rows[1], &rows[2], &rows[3]}
		sims, oks := sc.CosineTo4(&b)
		for j, r := range b {
			want, wantOK := sc.CosineTo(r)
			if sims[j] != want || oks[j] != wantOK {
				t.Fatalf("load %d, row %d (nnz %d of %v): CosineTo4 = (%v,%v), CosineTo (%v,%v)",
					i, j, r.NNZ(), [4]int{rows[0].NNZ(), rows[1].NNZ(), rows[2].NNZ(), rows[3].NNZ()}, sims[j], oks[j], want, wantOK)
			}
		}
	}
}

// TestScratchReloadLeavesNoStaleValues: CosineTo reads the dense image
// without an occupancy test, so a re-Load must take the previous row back
// out. The peer shares dimensions only with the row loaded first; any
// value left behind would show up as a non-zero dot.
func TestScratchReloadLeavesNoStaleValues(t *testing.T) {
	row := func(kv ...float64) *Row {
		v := sparse.New(len(kv) / 2)
		for i := 0; i < len(kv); i += 2 {
			v[int32(kv[i])] = kv[i+1]
		}
		r := FromVector(v)
		return &r
	}
	cosine := func(a, b *Row) float64 {
		s, ok := Cosine(a, b)
		if !ok {
			t.Fatal("fixture: cosine undefined")
		}
		return s
	}
	first, second := row(1, 2, 5, 3, 40, -6), row(5, 1, 9, 4)
	peer := row(1, 7, 40, 2, 63, -2)
	if cosine(first, peer) == 0 || cosine(second, peer) != 0 {
		t.Fatal("fixture: the peer must overlap the first row only")
	}
	sc := NewScratch(64)
	for _, r := range []*Row{first, second, first} {
		sc.Load(r)
		if got, ok := sc.CosineTo(peer); !ok || got != cosine(r, peer) {
			t.Fatalf("CosineTo after re-Load = (%v,%v), merge-join %v", got, ok, cosine(r, peer))
		}
	}
}

// TestTopKMatchesSparse: a row's TopK is sparse.Vector.TopK — value
// descending, ties by ascending key — for every k, over vectors whose
// quantized values tie often, and over vectors of one or two values only,
// whose order the key ties decide. A row holding NaNs (which sparse does
// not order) is checked against a full sort by TopK's own comparator.
func TestTopKMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 90; trial++ {
		v := randVector(rng, rng.Intn(50)+trial*4)
		if trial >= 60 { // few distinct values: mostly ties
			v = sparse.New(0)
			for i := rng.Intn(200); i >= 0; i-- {
				v.Add(int32(rng.Intn(dims)), float64(1+trial%2*rng.Intn(2)))
			}
		}
		row := FromVector(v)
		for _, k := range []int{-1, 0, 1, 2, 15, len(v) / 2, len(v) - 1, len(v), len(v) + 1, 1 << 40} {
			want := v.TopK(k)
			got := row.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d positions, sparse has %d", trial, k, len(got), len(want))
			}
			for i, pos := range got {
				if row.Keys[pos] != want[i].Key || row.Vals[pos] != want[i].Value {
					t.Fatalf("trial %d k=%d rank %d: (%d, %v), sparse has %+v", trial, k, i, row.Keys[pos], row.Vals[pos], want[i])
				}
			}
		}
		// It selects: the positions returned are all it allocates.
		if allocs := testing.AllocsPerRun(10, func() { row.TopK(15) }); allocs > 1 {
			t.Fatalf("trial %d: TopK(15) over %d entries allocates %v times", trial, len(v), allocs)
		}
	}

	// NaN ranks after every number; NaNs and ties among themselves by key.
	for trial := 0; trial < 40; trial++ {
		var row Row
		for key, n := int32(0), int32(rng.Intn(60)); key < n; key++ {
			x := float64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				x = math.NaN()
			}
			row.Keys, row.Vals = append(row.Keys, key), append(row.Vals, x)
		}
		want := make([]int32, len(row.Keys))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(row.Vals[b], row.Vals[a]) })
		for _, k := range []int{0, 1, 3, len(want) / 2, len(want)} {
			got := row.TopK(k)
			if !slices.Equal(got, want[:len(got)]) || (k > 0 && k <= len(want) && len(got) != k) {
				t.Fatalf("NaN trial %d k=%d: TopK = %v, full sort %v (vals %v)", trial, k, got, want, row.Vals)
			}
		}
	}
}
