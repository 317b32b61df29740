package trust

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"swrec/internal/model"
)

// compareIn returns the comparator peer order replaced: descending
// trust, ties by ascending URI, each read from ids by ordinal. It is the
// oracle the packed-word sort must equal.
func compareIn(ids []model.AgentID) func(a, b Rank) int {
	return func(a, b Rank) int {
		switch {
		case a.Trust > b.Trust:
			return -1
		case a.Trust < b.Trust:
			return 1
		case ids[a.ord] < ids[b.ord]:
			return -1
		case ids[a.ord] > ids[b.ord]:
			return 1
		default:
			return 0
		}
	}
}

// shuffledIDs returns an ordinal → URI table whose URI order is not the
// ordinal order, so a tie broken by ordinal shows.
func shuffledIDs(rng *rand.Rand, n int) []model.AgentID {
	ids := make([]model.AgentID, n)
	for i, p := range rng.Perm(n) {
		ids[i] = model.AgentID(fmt.Sprintf("a%05d", p))
	}
	return ids
}

// randomRanks returns n ranks of distinct peers in random order. Scores
// are drawn so that ties are common: exact repeats, ±0, negatives, and
// values one ulp apart, which share their truncated key.
func randomRanks(rng *rand.Rand, n int) []Rank {
	pool := []float64{1, 0.5, 0, math.Copysign(0, -1), -0.25, 1e-300, -1e-300, 3}
	rs := make([]Rank, n)
	for i, p := range rng.Perm(n) {
		var t float64
		switch rng.Intn(4) {
		case 0:
			t = pool[rng.Intn(len(pool))]
		case 1:
			t = math.Nextafter(pool[rng.Intn(len(pool))], math.Inf(rng.Intn(2)*2-1))
		default:
			t = rng.NormFloat64()
		}
		rs[i] = Rank{Trust: t, ord: int32(p)}
	}
	return rs
}

func TestSortPeersMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(600)
		if trial < 20 {
			n = trial
		}
		rs, ids := randomRanks(rng, n), shuffledIDs(rng, n)
		want := slices.Clone(rs)
		slices.SortFunc(want, compareIn(ids))

		got := slices.Clone(rs)
		sortRanks(got, ids)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortPeers differs from the comparator sort\n got %v\nwant %v", n, got, want)
		}
		for _, keep := range []int{0, 1, n / 3, n} {
			if keep > n {
				continue
			}
			dst := make([]Rank, keep)
			in := slices.Clone(rs)
			TopPeers(dst, in, rankTrust, rankOrd, ids)
			if !slices.Equal(dst, want[:keep]) {
				t.Fatalf("n=%d keep=%d: TopPeers differs from the sorted prefix\n got %v\nwant %v", n, keep, dst, want[:keep])
			}
			if !slices.Equal(in, rs) {
				t.Fatalf("n=%d keep=%d: TopPeers reordered its input", n, keep)
			}
		}
	}
}

// TestSortPeersLongTie sorts 9,100 equal ranks — every agent of the
// paper's community at rank 1, as without a trust metric — and requires
// the packed-word sort to stay within a small factor of the comparator
// sort: a tie settled by a quadratic pass would take hundreds of times
// as long.
func TestSortPeersLongTie(t *testing.T) {
	rng := rand.New(rand.NewSource(9100))
	rs, ids := make([]Rank, 9100), make([]model.AgentID, 9100)
	for i, p := range rng.Perm(len(rs)) {
		rs[i] = Rank{Trust: 1, ord: int32(i)}
		ids[i] = model.AgentID(fmt.Sprintf("http://swrec.example/people/a%d", p))
	}
	want := slices.Clone(rs)
	slices.SortFunc(want, compareIn(ids))
	fastest := func(sort func([]Rank)) (time.Duration, []Rank) {
		best, out := time.Duration(math.MaxInt64), []Rank(nil)
		for range 3 {
			out = slices.Clone(rs)
			start := time.Now()
			sort(out)
			best = min(best, time.Since(start))
		}
		return best, out
	}
	ref, _ := fastest(func(x []Rank) { slices.SortFunc(x, compareIn(ids)) })
	took, got := fastest(func(x []Rank) { sortRanks(x, ids) })
	if !slices.Equal(got, want) {
		t.Fatal("a 9,100-way tie sorts differently from the comparator sort")
	}
	if took > 10*ref+10*time.Millisecond {
		t.Errorf("a 9,100-way tie took %v, the comparator sort %v", took, ref)
	}
}

// TestPeerOrderAllocatesNothing holds both entry points to zero
// allocations once the word pool is warm.
func TestPeerOrderAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	rs, ids := randomRanks(rng, 400), shuffledIDs(rng, 400)
	dst := make([]Rank, 150)
	for name, run := range map[string]func(){
		"SortPeers": func() { sortRanks(rs, ids) },
		"TopPeers":  func() { TopPeers(dst, rs, rankTrust, rankOrd, ids) },
	} {
		run()
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, got)
		}
	}
}
