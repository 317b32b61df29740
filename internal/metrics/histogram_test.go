package metrics

import (
	"expvar"
	"math/rand"
	"sync"
	"testing"
	"time"
)

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
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := merged.Quantile(q), one.Quantile(q); got != want {
			t.Fatalf("q%.3f: merged %v != single %v", q, got, want)
		}
	}
	// Spot-check accuracy against a known uniform distribution.
	var u Histogram
	for v := 1; v <= 100000; v++ {
		u.Record(time.Duration(v) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got := float64(u.Quantile(q))
		want := q * 1e5 * 1e3 // q-th value in ns
		if got < want*0.97 || got > want*1.04 {
			t.Fatalf("q%.3f: got %.0fns, want %.0fns ±4%%", q, got, want)
		}
	}
	if u.Count() != 100000 {
		t.Fatalf("count %d", u.Count())
	}
	if u.Max() != 100000*time.Microsecond {
		t.Fatalf("max %v", u.Max())
	}
}

// A quantile reads the observation of nearest rank ⌈q·n⌉, never the one
// below it: of {1 ms, 50 ms} the p99 is 50 ms, and of 1..10 ms the p95
// is 10 ms.
func TestQuantileNearestRank(t *testing.T) {
	var two Histogram
	two.Record(time.Millisecond)
	two.Record(50 * time.Millisecond)
	if got := two.Quantile(0.99); got != 50*time.Millisecond {
		t.Fatalf("p99 of {1ms, 50ms} = %v, want 50ms", got)
	}
	if got := two.Quantile(0.5); got < time.Millisecond || got > 1032*time.Microsecond {
		t.Fatalf("p50 of {1ms, 50ms} = %v, want 1ms's bucket", got)
	}
	var ten Histogram
	for i := 1; i <= 10; i++ {
		ten.Record(time.Duration(i) * time.Millisecond)
	}
	if got := ten.Quantile(0.95); got != 10*time.Millisecond {
		t.Fatalf("p95 of 1..10ms = %v, want 10ms", got)
	}
	if got := ten.Quantile(0); got < time.Millisecond || got > 1032*time.Microsecond {
		t.Fatalf("p0 of 1..10ms = %v, want the first observation's bucket", got)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 || empty.Mean() != 0 || empty.Count() != 0 {
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
		if got := h.Count(); got != n {
			t.Fatalf("count %d, want %d", got, n)
		}
		if got, want := h.sum.Load(), uint64(n*(n+1)/2); got != want {
			t.Fatalf("sum %d, want %d", got, want)
		}
		if got := h.Max(); got != n {
			t.Fatalf("max %d, want %d", got, n)
		}
	}
}

// A Record allocates nothing, on a plain histogram and on a published one
// after its first Record.
func TestRecordAllocatesNothing(t *testing.T) {
	var plain Histogram
	published := newMap().Histogram("ep")
	published.Record(time.Millisecond)
	for _, h := range []*Histogram{&plain, published} {
		if allocs := testing.AllocsPerRun(100, func() { h.Record(3 * time.Millisecond) }); allocs != 0 {
			t.Fatalf("Record allocates %v times", allocs)
		}
	}
}

// decadeBefore is the one decade bucket each request was counted in
// before the decades were read from a histogram.
func decadeBefore(d time.Duration) string {
	switch {
	case d <= time.Millisecond:
		return "le_1ms"
	case d <= 10*time.Millisecond:
		return "le_10ms"
	case d <= 100*time.Millisecond:
		return "le_100ms"
	case d <= time.Second:
		return "le_1s"
	default:
		return "gt_1s"
	}
}

// number reads a published histogram key.
func number(t *testing.T, m *Map, key string) float64 {
	t.Helper()
	f, ok := m.m.Get(key).(expvar.Func)
	if !ok {
		t.Fatalf("key %q holds %T, want expvar.Func", key, m.m.Get(key))
	}
	switch v := f.Value().(type) {
	case uint64:
		return float64(v)
	case float64:
		return v
	default:
		t.Fatalf("key %q reads %T, want a number", key, v)
		return 0
	}
}

// A duration at half and at twice each decade bound counts in the same
// decade key as before, and in no other.
func TestDecadeKeysKeepTheirBuckets(t *testing.T) {
	for _, bound := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		for _, d := range []time.Duration{bound / 2, bound * 2} {
			m := newMap()
			m.Histogram("ep").Record(d)
			for _, dec := range decades {
				want := 0.0
				if dec.key == decadeBefore(d) {
					want = 1
				}
				if got := number(t, m, "ep_"+dec.key); got != want {
					t.Errorf("%v: ep_%s = %v, want %v", d, dec.key, got, want)
				}
			}
		}
	}
}

// A published histogram's keys appear at its first Record, and read its
// count, and its quantiles and maximum in microseconds.
func TestPublishedKeys(t *testing.T) {
	m := newMap()
	h := m.Histogram("ep")
	keys := []string{"ep_requests", "ep_le_1ms", "ep_le_10ms", "ep_le_100ms", "ep_le_1s", "ep_gt_1s",
		"ep_p50_us", "ep_p90_us", "ep_p99_us", "ep_p999_us", "ep_max_us"}
	for _, k := range keys {
		if m.m.Get(k) != nil {
			t.Fatalf("%s published before the first Record", k)
		}
	}
	h.Record(2 * time.Millisecond)
	h.Record(0)
	for _, k := range keys {
		number(t, m, k)
	}
	if got := number(t, m, "ep_requests"); got != 2 {
		t.Fatalf("ep_requests = %v, want 2", got)
	}
	if got := number(t, m, "ep_max_us"); got != 2000 {
		t.Fatalf("ep_max_us = %v, want 2000", got)
	}
	if got := number(t, m, "ep_p99_us"); got != 2000 {
		t.Fatalf("ep_p99_us = %v, want 2000", got)
	}
	if got := number(t, m, "ep_p50_us"); got != 0 {
		t.Fatalf("ep_p50_us = %v, want 0", got)
	}
	if got := number(t, m, "ep_le_1ms") + number(t, m, "ep_le_10ms"); got != 2 {
		t.Fatalf("decades count %v observations, want 2", got)
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
