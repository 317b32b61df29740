package profmat

// The textbook kernels the Scratch kernels are pinned to: merge-joins
// over two rows' sorted postings, summing the common dimensions in
// ascending order. They live only here, as the oracle of
// TestScratchMatchesMergeJoinExactly, themselves checked against the
// map-based sparse kernels by TestKernelsMatchSparseDifferential.

import (
	"math"

	"swrec/internal/sparse"
)

// FromVector compiles a single sparse vector into a standalone row — the
// bridge from the map-built vectors of the differential tests to the
// compiled kernels.
func FromVector(v sparse.Vector) Row {
	es := v.Entries()
	r := Row{
		Keys: make([]int32, len(es)),
		Vals: make([]float64, len(es)),
	}
	var norm2 float64
	for i, e := range es {
		r.Keys[i] = e.Key
		r.Vals[i] = e.Value
		norm2 += e.Value * e.Value
		r.Sum += e.Value
	}
	r.Norm = math.Sqrt(norm2)
	return r
}

// Dot returns the inner product of two rows as a merge-join over the
// sorted postings.
func Dot(a, b *Row) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka == kb:
			s += a.Vals[i] * b.Vals[j]
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	return s
}

// Overlap returns the number of dimensions present in both rows.
func Overlap(a, b *Row) int {
	n := 0
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka == kb:
			n++
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	return n
}

// Cosine is sparse.Cosine over compiled rows, as a merge-join: missing
// entries count as zero, and ok is false when either norm is zero. The
// norms come from the precomputed row aggregates.
func Cosine(a, b *Row) (sim float64, ok bool) {
	if a.Norm == 0 || b.Norm == 0 {
		return 0, false
	}
	return clamp(Dot(a, b) / (a.Norm * b.Norm)), true
}

// Pearson is sparse.Pearson over compiled rows: the correlation over the
// co-present dimensions, undefined (ok=false) below two overlapping
// dimensions or under zero variance, in two merge passes.
func Pearson(a, b *Row) (sim float64, ok bool) {
	var n int
	var sa, sb float64
	i, j := 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka == kb:
			n++
			sa += a.Vals[i]
			sb += b.Vals[j]
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	if n < 2 {
		return 0, false
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	i, j = 0, 0
	for i < len(a.Keys) && j < len(b.Keys) {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka == kb:
			x, y := a.Vals[i], b.Vals[j]
			cov += (x - ma) * (y - mb)
			va += (x - ma) * (x - ma)
			vb += (y - mb) * (y - mb)
			i++
			j++
		case ka < kb:
			i++
		default:
			j++
		}
	}
	if va == 0 || vb == 0 {
		return 0, false
	}
	return clamp(cov / math.Sqrt(va*vb)), true
}
