package loadgen

import (
	"math/bits"
	"time"
)

// Hist is an HDR-style log-linear latency histogram: each power-of-two
// octave of nanoseconds is split into 32 linear sub-buckets, bounding
// quantile error at ~3% while keeping the whole structure a flat array
// of counters — no allocation per Record, O(buckets) quantile reads.
// The zero value is ready to use. Not safe for concurrent use: the
// executor keeps one Hist per worker per series and merges at the end.
type Hist struct {
	counts []uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// subBits sets the linear resolution per octave: 2^5 = 32 sub-buckets.
const subBits = 5

// histBuckets covers values up to ~2^41 ns (~36 minutes), far beyond
// any request latency the harness meters.
const histBuckets = (42 - subBits) << subBits

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	msb := bits.Len64(v) - 1 // ≥ subBits
	shift := msb - subBits
	b := (msb-subBits)<<subBits + int(v>>shift)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketHi returns the inclusive upper edge of a bucket — the
// conservative representative a quantile read reports.
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

// Record adds one latency observation.
//
//swrec:hotpath
func (h *Hist) Record(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets) //nolint:hotalloc -- lazy one-time bucket init: amortized to zero across the run's millions of records
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the mean latency, or 0 when empty.
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// Max returns the largest recorded value.
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the latency at quantile q ∈ [0,1] (upper bucket
// edge, so the estimate never understates), or 0 when empty.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(float64(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			hi := bucketHi(b)
			if hi > h.max {
				hi = h.max
			}
			return time.Duration(hi)
		}
	}
	return time.Duration(h.max)
}
