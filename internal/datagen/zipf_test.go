package datagen

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
)

// TestZipfDeterministicAcrossWorkers is the determinism regression for
// the counter-based sampler: the draw sequence for a fixed seed must be
// identical whether one worker draws every index or W workers each draw
// a disjoint stripe. This is the property that keeps load-harness event
// plans byte-identical regardless of executor parallelism.
func TestZipfDeterministicAcrossWorkers(t *testing.T) {
	const n, draws = 500, 4096
	z := NewZipf(1117, 1.07, n)

	serial := make([]int, draws)
	for i := range serial {
		serial[i] = z.Pick(uint64(i))
	}

	for _, workers := range []int{2, 3, 8, 17} {
		parallel := make([]int, draws)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker owns the stripe i ≡ w (mod workers); a
				// fresh sampler per worker proves Pick carries no
				// cross-call state.
				zw := NewZipf(1117, 1.07, n)
				for i := w; i < draws; i += workers {
					parallel[i] = zw.Pick(uint64(i))
				}
			}(w)
		}
		wg.Wait()
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: draw %d = %d, serial drew %d", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// TestZipfSkew sanity-checks the rank weighting: with s>0 the head item
// must dominate a deep-tail item roughly by the configured power law.
func TestZipfSkew(t *testing.T) {
	const n, draws = 100, 200000
	z := NewZipf(7, 1.0, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Pick(uint64(i))]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("no skew: head=%d tail=%d", counts[0], counts[n-1])
	}
	// With s=1 the head:tail ratio is n; allow a generous band.
	ratio := float64(counts[0]) / math.Max(float64(counts[n-1]), 1)
	if ratio < float64(n)/4 {
		t.Fatalf("head/tail ratio %.1f, want ≳ %d", ratio, n/4)
	}

	// s=0 is uniform: min and max counts stay within a loose band.
	u := NewZipf(7, 0, n)
	counts = make([]int, n)
	for i := 0; i < draws; i++ {
		counts[u.Pick(uint64(i))]++
	}
	minC, maxC := draws, 0
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if minC == 0 || float64(maxC)/float64(minC) > 2 {
		t.Fatalf("uniform draw skewed: min=%d max=%d", minC, maxC)
	}
}

// TestGenerateFingerprint pins the exact generated community for two
// seeds. The preferential-attachment sampler was rebuilt on Fenwick
// trees for 10^5-agent scale; these hashes were captured from the
// pre-tree linear-scan generator, so a pass proves the refactor (and
// any future one) is draw-for-draw identical.
func TestGenerateFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"small-seed1", SmallScale(), 0x54298bdc81e24eeb},
		{"seed42-skew1", func() Config {
			c := SmallScale()
			c.Seed = 42
			c.PopularitySkew = 1.0
			return c
		}(), 0x85bc86e380b02a5e},
	}
	for _, tc := range cases {
		comm, _ := Generate(tc.cfg)
		h := fnv.New64a()
		for _, id := range comm.Agents() {
			a := comm.Agent(id)
			fmt.Fprintf(h, "%s|%d|%d\n", id, len(a.TrustedPeers()), len(a.RatedProducts()))
			for _, ts := range comm.TrustStatements(a) {
				fmt.Fprintf(h, "t %s %.6f\n", ts.Dst, ts.Value)
			}
			for _, rs := range comm.RatingStatements(a) {
				fmt.Fprintf(h, "r %s %.6f\n", rs.Product, rs.Value)
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: fingerprint %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

// TestFenwickMatchesLinearScan drives the tree against the scan it
// replaced on randomized weight sequences.
func TestFenwickMatchesLinearScan(t *testing.T) {
	const n = 97
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	f := newFenwick(n)
	for i := 0; i < n; i++ {
		f.Add(i, 1)
	}
	linear := func(r int) int {
		for i, wi := range w {
			r -= wi
			if r < 0 {
				return i
			}
		}
		return n - 1
	}
	// Deterministic pseudo-random walk over draws and weight bumps.
	for step := uint64(0); step < 5000; step++ {
		r := int(Uniform01(3, step) * float64(f.Total()))
		if r >= f.Total() {
			r = f.Total() - 1
		}
		want, got := linear(r), f.FindPrefix(r)
		if want != got {
			t.Fatalf("step %d: FindPrefix(%d) = %d, linear scan = %d", step, r, got, want)
		}
		bumpAt := int(Uniform01(4, step) * n)
		w[bumpAt]++
		f.Add(bumpAt, 1)
	}
}
