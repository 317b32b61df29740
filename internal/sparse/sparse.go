// Package sparse provides sparse float64 vectors keyed by int32 indices,
// plus the similarity measures the paper's collaborative filtering uses:
// Pearson's correlation coefficient [6,3] and the cosine distance from
// Information Retrieval (§3.3).
//
// Profile vectors over a 20,000-topic taxonomy are overwhelmingly sparse,
// so all operations run over the stored entries only. The semantics of
// "missing" differ per measure and follow the recommender-systems
// literature: Pearson is computed over the *overlap* of the two vectors
// (co-rated dimensions), whereas cosine treats missing entries as zero.
package sparse

import (
	"math"
	"sort"
)

// Vector is a sparse map from dimension index to value. The zero value is
// an empty vector; use make or New for pre-sizing.
type Vector map[int32]float64

// New returns an empty vector with capacity hint n.
func New(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for k, x := range v {
		c[k] = x
	}
	return c
}

// Add accumulates x into dimension k.
func (v Vector) Add(k int32, x float64) { v[k] += x }

// Scale multiplies every stored entry by f in place and returns v.
func (v Vector) Scale(f float64) Vector {
	for k := range v {
		v[k] *= f
	}
	return v
}

// Sum returns the sum of all stored entries.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm returns the Euclidean norm over stored entries.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Dot returns the inner product, iterating over the smaller operand.
func Dot(a, b Vector) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for k, x := range a {
		if y, ok := b[k]; ok {
			s += float64(x * y)
		}
	}
	return s
}

// Overlap returns the number of dimensions present in both vectors.
func Overlap(a, b Vector) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

// Cosine returns the cosine similarity in [-1, 1], treating missing
// entries as zero. ok is false when either vector has zero norm (the
// measure is undefined, the ⊥ of §3.1 carried through).
func Cosine(a, b Vector) (sim float64, ok bool) {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0, false
	}
	return clamp(Dot(a, b) / (na * nb)), true
}

// Pearson returns Pearson's correlation coefficient over the co-present
// dimensions of a and b, the classic collaborative-filtering similarity
// [Shardanand & Maes 1995]. ok is false when fewer than two dimensions
// overlap or either restricted vector has zero variance — exactly the
// "low profile overlap" failure mode the paper's taxonomy profiles remedy.
func Pearson(a, b Vector) (sim float64, ok bool) {
	if len(b) < len(a) {
		a, b = b, a
	}
	var n int
	var sa, sb float64
	for k, x := range a {
		if y, okk := b[k]; okk {
			n++
			sa += x
			sb += y
		}
	}
	if n < 2 {
		return 0, false
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var cov, va, vb float64
	for k, x := range a {
		if y, okk := b[k]; okk {
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

// Entry is one (dimension, value) pair, used for ordered extraction.
type Entry struct {
	Key   int32
	Value float64
}

// TopK returns the k largest entries by value (ties broken by key, for
// determinism), descending. k <= 0 or k >= len(v) returns all entries.
func (v Vector) TopK(k int) []Entry {
	out := make([]Entry, 0, len(v))
	for key, x := range v {
		out = append(out, Entry{Key: key, Value: x})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// Entries returns all entries sorted by key ascending.
func (v Vector) Entries() []Entry {
	out := make([]Entry, 0, len(v))
	for key, x := range v {
		out = append(out, Entry{Key: key, Value: x})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
