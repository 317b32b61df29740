package metrics

import (
	"expvar"
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
	// max is the largest value recorded. A histogram published by
	// Map.Histogram starts it at -1, below every value, so that its
	// first Record takes raise's slow path, which publishes the keys.
	max atomic.Int64

	m    *expvar.Map       // nil unless published by Map.Histogram
	keys []expvar.KeyValue // what the first Record sets in m
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

// raise lifts the maximum to v. The call that lifts it from -1, the
// first Record of a published histogram, publishes the histogram's keys.
func (h *Histogram) raise(v int64) {
	old := h.max.Load()
	for v > old && !h.max.CompareAndSwap(old, v) {
		old = h.max.Load()
	}
	if old < 0 && v > old {
		for _, kv := range h.keys {
			h.m.Set(kv.Key, kv.Value)
		}
	}
}

// Merge folds other into h. other must not be recorded into meanwhile.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
	h.sum.Add(other.sum.Load())
	if v := other.max.Load(); v > h.max.Load() {
		h.raise(v)
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Mean returns the mean latency, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() time.Duration { return time.Duration(max(h.max.Load(), 0)) }

// Quantile returns the latency at quantile q ∈ [0,1], or 0 when empty:
// the upper edge of the bucket holding the observation of nearest rank
// ⌈q·n⌉, capped at the maximum, so the estimate never understates.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := max(uint64(math.Ceil(float64(q*float64(n)))), 1)
	top := uint64(h.Max())
	var cum uint64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= target {
			return time.Duration(min(bucketHi(b), top))
		}
	}
	return time.Duration(top)
}

// decades are a published histogram's decade keys and their upper
// bounds; each counts what lies above the bound before it.
var decades = [...]struct {
	key string
	hi  time.Duration
}{
	{"le_1ms", time.Millisecond}, {"le_10ms", 10 * time.Millisecond},
	{"le_100ms", 100 * time.Millisecond}, {"le_1s", time.Second}, {"gt_1s", math.MaxInt64},
}

// quantiles are a published histogram's quantile keys.
var quantiles = [...]struct {
	key string
	q   float64
}{{"p50_us", 0.50}, {"p90_us", 0.90}, {"p99_us", 0.99}, {"p999_us", 0.999}}

// Histogram returns a histogram whose summary appears in m at its first
// Record, as flat numeric keys read from it whenever m is read:
//
//   - name_requests is the count, a latency histogram counting requests;
//   - name_le_1ms, _le_10ms, _le_100ms, _le_1s and _gt_1s count the
//     observations in each disjoint decade. An observation counts in the
//     decade holding its bucket's upper edge, so one up to 1/32 (3.1%)
//     below a decade bound may count in the decade above it, and none
//     above a bound counts in the decade below it: 1.01 ms never reads
//     le_1ms, and 0.9995 ms reads le_10ms.
//   - name_p50_us, _p90_us, _p99_us and _p999_us are Quantile's
//     estimates, and name_max_us the maximum, in microseconds.
func (m *Map) Histogram(name string) *Histogram {
	h := &Histogram{m: m.m}
	h.max.Store(-1)
	add := func(key string, f func() any) {
		h.keys = append(h.keys, expvar.KeyValue{Key: name + "_" + key, Value: expvar.Func(f)})
	}
	add("requests", func() any { return h.Count() })
	for i, d := range decades {
		lo := time.Duration(-1)
		if i > 0 {
			lo = decades[i-1].hi
		}
		add(d.key, func() any { return h.countWithin(lo, d.hi) })
	}
	for _, q := range quantiles {
		add(q.key, func() any { return micros(h.Quantile(q.q)) })
	}
	add("max_us", func() any { return micros(h.Max()) })
	return h
}

// countWithin returns the number of observations in buckets whose upper
// edge lies in (lo, hi].
func (h *Histogram) countWithin(lo, hi time.Duration) uint64 {
	var n uint64
	for b := bucketOf(uint64(lo + 1)); b < numBuckets && time.Duration(bucketHi(b)) <= hi; b++ {
		n += h.buckets[b].Load()
	}
	return n
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
