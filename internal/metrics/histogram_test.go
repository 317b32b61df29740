package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// quantile is the test oracle of Summary's quantiles: a sweep of its own
// per quantile for the upper edge of the bucket holding the observation
// of nearest rank ⌈q·n⌉, capped at the maximum.
func quantile(h *Histogram, q float64) time.Duration {
	var n uint64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	if n == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(n))), 1)
	top := uint64(h.max.Load())
	var cum uint64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum >= target {
			return time.Duration(min(bucketHi(b), top))
		}
	}
	return time.Duration(top)
}

// quantiles are a Summary's four quantiles and the ranks they read.
func quantiles(s Summary) map[float64]time.Duration {
	return map[float64]time.Duration{0.50: s.P50, 0.90: s.P90, 0.99: s.P99, 0.999: s.P999}
}

// TestHistQuantiles drives the log-linear histogram against exact
// order statistics and checks the ≤ ~3%-per-octave error bound plus
// merge equivalence.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var one Histogram
	var parts [4]Histogram
	for i := 0; i < 20000; i++ {
		// Spread over 1µs..100ms, the range requests live in.
		d := time.Duration(float64(time.Microsecond) * (1 + 1e5*rng.Float64()))
		one.Record(d)
		parts[i%4].Record(d)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if got, want := merged.Summary(), one.Summary(); got != want {
		t.Fatalf("merged %+v != single %+v", got, want)
	}
	// Spot-check accuracy against a known uniform distribution.
	var u Histogram
	for v := 1; v <= 100000; v++ {
		u.Record(time.Duration(v) * time.Microsecond)
	}
	s := u.Summary()
	for q, d := range quantiles(s) {
		got := float64(d)
		want := q * 1e5 * 1e3 // q-th value in ns
		if got < want*0.97 || got > want*1.04 {
			t.Fatalf("q%.3f: got %.0fns, want %.0fns ±4%%", q, got, want)
		}
	}
	if s.Count != 100000 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max != 100000*time.Microsecond {
		t.Fatalf("max %v", s.Max)
	}
	if s.Mean() != 50000500*time.Nanosecond {
		t.Fatalf("mean %v", s.Mean())
	}
}

// Summary's one sweep for all four quantiles reads what the oracle's
// sweep per quantile reads, over histograms of every shape from one
// observation to a long tail.
func TestSummaryMatchesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var h Histogram
		n := 1 + rng.Intn(1<<uint(rng.Intn(14)))
		for i := 0; i < n; i++ {
			h.Record(time.Duration(rng.ExpFloat64() * float64(int64(1)<<uint(rng.Intn(36)))))
		}
		s := h.Summary()
		for q, got := range quantiles(s) {
			if want := quantile(&h, q); got != want {
				t.Fatalf("round %d, %d observations: q%.3f = %v, oracle %v", round, n, q, got, want)
			}
		}
		if s.Count != uint64(n) || s.Max != time.Duration(h.max.Load()) || s.Sum != time.Duration(h.sum.Load()) {
			t.Fatalf("round %d: summary %+v, want count %d", round, s, n)
		}
	}
}

// A quantile reads the observation of nearest rank ⌈q·n⌉, never the one
// below it: of {1 ms, 50 ms} the p99 is 50 ms, and of 1..10 ms the p99
// is 10 ms and the p90 9 ms.
func TestQuantileNearestRank(t *testing.T) {
	var two Histogram
	two.Record(time.Millisecond)
	two.Record(50 * time.Millisecond)
	s := two.Summary()
	if s.P99 != 50*time.Millisecond {
		t.Fatalf("p99 of {1ms, 50ms} = %v, want 50ms", s.P99)
	}
	if s.P50 < time.Millisecond || s.P50 > 1032*time.Microsecond {
		t.Fatalf("p50 of {1ms, 50ms} = %v, want 1ms's bucket", s.P50)
	}
	var ten Histogram
	for i := 1; i <= 10; i++ {
		ten.Record(time.Duration(i) * time.Millisecond)
	}
	s = ten.Summary()
	if s.P99 != 10*time.Millisecond {
		t.Fatalf("p99 of 1..10ms = %v, want 10ms", s.P99)
	}
	if s.P90 < 9*time.Millisecond || s.P90 > 9288*time.Microsecond {
		t.Fatalf("p90 of 1..10ms = %v, want 9ms's bucket", s.P90)
	}
	var empty Histogram
	if empty.Summary() != (Summary{}) || (Summary{}).Mean() != 0 {
		t.Fatal("an empty histogram reads nonzero")
	}
}

// Concurrent Records lose nothing: the count, the sum and the maximum
// are exact. Run it under -race.
func TestHistogramConcurrentRecord(t *testing.T) {
	const goroutines, records = 8, 2000
	m := newMap()
	for _, h := range []*Histogram{new(Histogram), m.Histogram("ep")} {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= records; i++ {
					h.Record(time.Duration(g*records + i))
				}
			}()
		}
		wg.Wait()
		const n = goroutines * records
		s := h.Summary()
		if s.Count != n {
			t.Fatalf("count %d, want %d", s.Count, n)
		}
		if want := time.Duration(n * (n + 1) / 2); s.Sum != want {
			t.Fatalf("sum %d, want %d", s.Sum, want)
		}
		if s.Max != n {
			t.Fatalf("max %d, want %d", s.Max, n)
		}
	}
}

// A Record allocates nothing, on a plain histogram and on a published one.
func TestRecordAllocatesNothing(t *testing.T) {
	var plain Histogram
	published := newMap().Histogram("ep")
	for _, h := range []*Histogram{&plain, published} {
		if allocs := testing.AllocsPerRun(100, func() { h.Record(3 * time.Millisecond) }); allocs != 0 {
			t.Fatalf("Record allocates %v times", allocs)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record(time.Duration(i & 0xfffff))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.Record(time.Duration(i & 0xfffff))
			}
		})
	})
}
