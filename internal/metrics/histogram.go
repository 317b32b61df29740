package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram: each
// power-of-two octave of nanoseconds is split into 32 linear
// sub-buckets, bounding quantile error at ~3% while keeping the whole
// structure a flat array of counts — no allocation per Record,
// O(buckets) reads. The zero value is ready to use, and it is safe for
// concurrent use: Record is one bucket add, one sum add and a check
// against the maximum. The count is the sum of the buckets.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Int64
	name    string // its keys' prefix in the Map that made it
}

// subBits sets the linear resolution per octave: 2^5 = 32 sub-buckets.
const subBits = 5

// numBuckets covers values up to ~2^41 ns (~36 minutes), far beyond any
// request latency.
const numBuckets = (42 - subBits) << subBits

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	msb := bits.Len64(v) - 1 // ≥ subBits
	shift := msb - subBits
	b := (msb-subBits)<<subBits + int(v>>shift)
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketHi returns the inclusive upper edge of a bucket — the
// conservative representative a read reports.
func bucketHi(b int) uint64 {
	if b < 1<<subBits {
		return uint64(b)
	}
	g := b >> subBits // msb - subBits
	rem := uint64(b & (1<<subBits - 1))
	shift := g - 1
	lo := (1<<subBits + rem) << shift
	return lo + 1<<shift - 1
}

// Record adds one latency observation; a negative one counts as 0.
//
//swrec:hotpath
func (h *Histogram) Record(d time.Duration) {
	v := max(int64(d), 0)
	h.buckets[bucketOf(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
	if v > h.max.Load() {
		h.raise(v)
	}
}

// raise lifts the maximum to v.
func (h *Histogram) raise(v int64) {
	old := h.max.Load()
	for v > old && !h.max.CompareAndSwap(old, v) {
		old = h.max.Load()
	}
}

// Merge folds other into h. other must not be recorded into meanwhile.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
	h.sum.Add(other.sum.Load())
	h.raise(other.max.Load())
}

// Summary is one read of a Histogram. A quantile is the upper edge of
// the bucket holding the observation of nearest rank ⌈q·n⌉, capped at
// the maximum, so the estimate never understates; all are 0 when empty.
type Summary struct {
	Count               uint64
	Sum, Max            time.Duration
	P50, P90, P99, P999 time.Duration
}

// Mean returns the mean observation, or 0 when empty.
func (s Summary) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Summary reads h in two sweeps of its buckets: the count, then the four
// quantiles together. Buckets only grow, so the second sweep reaches
// every rank the first one counted.
func (h *Histogram) Summary() Summary {
	top := time.Duration(h.max.Load())
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	var q [4]time.Duration
	cum, b := uint64(0), -1
	for i, p := range [...]float64{0.50, 0.90, 0.99, 0.999} {
		rank := max(uint64(math.Ceil(float64(p*float64(n)))), 1)
		for cum < rank && b < numBuckets-1 {
			b++
			cum += h.buckets[b].Load()
		}
		q[i] = min(time.Duration(bucketHi(b)), top)
	}
	return Summary{Count: n, Sum: time.Duration(h.sum.Load()), Max: top, P50: q[0], P90: q[1], P99: q[2], P999: q[3]}
}
