package model

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// loadFixture builds a community through the setters: values are
// multiples of 0.25, so every row has ties, and IDs sort differently from
// ordinals ("a10" < "a9"), so a tie-break by ordinal would show.
func loadFixture(seed int64) *Community { return sizedLoadFixture(seed, 40, 25) }

func sizedLoadFixture(seed int64, agents, products int) *Community {
	rng := rand.New(rand.NewSource(seed))
	c := NewCommunity(nil)
	for i := 0; i < products; i++ {
		c.AddProduct(Product{ID: ProductID(fmt.Sprintf("urn:p:%d", i))})
	}
	for i := 0; i < agents; i++ {
		c.AddAgent(AgentID(fmt.Sprintf("urn:a:%d", i)))
	}
	value := func() float64 { return float64(rng.Intn(9)-4) / 4 }
	for i := 0; i < agents*6; i++ {
		src, dst := c.agentIDs[rng.Intn(agents)], c.agentIDs[rng.Intn(agents)]
		if src != dst {
			_ = c.SetTrust(src, dst, value())
		}
		_ = c.SetRating(src, c.prodIDs[rng.Intn(products)], value())
	}
	return c
}

// rowsOf returns agent a's statement views as the ordinal-keyed rows a
// serialized community stores.
func rowsOf(c *Community, a *Agent) (dst []int32, trust []float64, prod []int32, ratings []float64) {
	for _, st := range a.TrustedPeers() {
		dst, trust = append(dst, c.Agent(st.Dst).ord), append(trust, st.Value)
	}
	for _, rs := range a.RatedProducts() {
		prod, ratings = append(prod, c.Product(rs.Product).ord), append(ratings, rs.Value)
	}
	return
}

// registeredCopy registers want's products and agents, in want's order,
// in a fresh community: a loader's starting point.
func registeredCopy(want *Community) *Community {
	got := NewCommunitySized(nil, want.NumAgents(), want.NumProducts())
	for _, p := range want.prodRecs {
		got.AddProduct(Product{ID: p.ID})
	}
	for _, id := range want.agentIDs {
		got.AddAgent(id)
	}
	return got
}

// loadedCopy rebuilds want through the loader; permute reorders each row
// before it is handed over.
func loadedCopy(t *testing.T, want *Community, permute func(idx []int32, val []float64)) *Community {
	t.Helper()
	got := registeredCopy(want)
	for _, a := range want.agentRecs {
		dst, trust, prod, ratings := rowsOf(want, a)
		permute(dst, trust)
		permute(prod, ratings)
		if err := got.LoadTrust(a.ord, dst, trust); err != nil {
			t.Fatal(err)
		}
		if err := got.LoadRatings(a.ord, prod, ratings); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// sameStatements fails unless got states, views and compiles what want
// does.
func sameStatements(t *testing.T, got, want *Community) {
	t.Helper()
	for ord, w := range want.agentRecs {
		g := got.agentRecs[ord]
		if !maps.Equal(g.Trust, w.Trust) || !maps.Equal(g.Ratings, w.Ratings) {
			t.Fatalf("%s: maps differ", w.ID)
		}
		if !slices.Equal(g.TrustedPeers(), w.TrustedPeers()) ||
			!slices.Equal(g.RatedProducts(), w.RatedProducts()) ||
			!slices.Equal(got.PositiveRatings(g), want.PositiveRatings(w)) {
			t.Fatalf("%s: views differ:\n%v\n%v", w.ID, g.TrustedPeers(), w.TrustedPeers())
		}
	}
	ga, wa := got.Adjacency(), want.Adjacency()
	if !reflect.DeepEqual(ga.Trust(), wa.Trust()) || !reflect.DeepEqual(ga.Ratings(), wa.Ratings()) {
		t.Fatal("compiled adjacency differs")
	}
}

func memos(a *Agent) int {
	n := 0
	if a.peersMemo.Load() != nil {
		n++
	}
	if a.ratingsMemo.Load() != nil {
		n++
	}
	if a.posMemo.Load() != nil {
		n++
	}
	return n
}

// TestLoadedEqualsSetterBuilt: an agent loaded from rows in view order
// equals the one built statement by statement — maps, the three sorted
// views, the compiled CSRs — and has its views installed, not pending.
func TestLoadedEqualsSetterBuilt(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		want := loadFixture(seed)
		got := loadedCopy(t, want, func([]int32, []float64) {})
		for _, a := range got.agentRecs {
			if memos(a) != 3 {
				t.Fatalf("seed %d %s: %d of 3 views installed from an in-order row", seed, a.ID, memos(a))
			}
		}
		sameStatements(t, got, want)
	}
}

// TestLoadTrustBesideLoadRatings pins the contract the checkpoint
// decoder relies on: once every agent and product is registered in a
// community that owns its records, LoadTrust and LoadRatings may run at
// once, one goroutine each — they write disjoint fields — and the result
// is the serial load's. Run it under -race.
func TestLoadTrustBesideLoadRatings(t *testing.T) {
	want := sizedLoadFixture(11, 2000, 300)
	got := registeredCopy(want)
	errs := make(chan error, 2)
	load := func(rows func(a *Agent) ([]int32, []float64), into func(int32, []int32, []float64) error) {
		for _, a := range want.agentRecs {
			idx, val := rows(a)
			if err := into(a.ord, idx, val); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}
	go load(func(a *Agent) ([]int32, []float64) {
		dst, trust, _, _ := rowsOf(want, a)
		return dst, trust
	}, got.LoadTrust)
	go load(func(a *Agent) ([]int32, []float64) {
		_, _, prod, ratings := rowsOf(want, a)
		return prod, ratings
	}, got.LoadRatings)
	for i := 0; i < 2; i++ {
		must(t, <-errs)
	}
	sameStatements(t, got, loadedCopy(t, want, func([]int32, []float64) {}))
	sameStatements(t, got, want)
}

// TestLoadOutOfOrderRowInstallsNoMemo: a row that is not in view order —
// reversed, or stating one target twice — is still the agent's function
// (the later statement wins, as under the setters) but is not taken for
// the sorted view, which is then built on first use.
func TestLoadOutOfOrderRowInstallsNoMemo(t *testing.T) {
	want := loadFixture(7)
	got := loadedCopy(t, want, func(idx []int32, val []float64) {
		slices.Reverse(idx)
		slices.Reverse(val)
	})
	for _, a := range got.agentRecs {
		if len(a.Trust) > 1 && a.peersMemo.Load() != nil ||
			len(a.Ratings) > 1 && (a.ratingsMemo.Load() != nil || a.posMemo.Load() != nil) {
			t.Fatalf("%s: a reversed row was taken for a sorted view", a.ID)
		}
	}
	sameStatements(t, got, want)

	// (b 0.5)(c 0.5)(b 0.25) is descending, and states b twice.
	c := NewCommunity(nil)
	for _, id := range []AgentID{"a", "b", "c"} {
		c.AddAgent(id)
	}
	c.AddProduct(Product{ID: "p"})
	c.AddProduct(Product{ID: "q"})
	must(t, c.LoadTrust(0, []int32{1, 2, 1}, []float64{0.5, 0.5, 0.25}))
	must(t, c.LoadRatings(0, []int32{0, 1, 0}, []float64{0.5, 0.5, 0.25}))
	a := c.Agent("a")
	if memos(a) != 0 {
		t.Fatalf("%d views installed from rows that state a target twice", memos(a))
	}
	if got, want := a.TrustedPeers(), []TrustStatement{{"a", "c", 0.5}, {"a", "b", 0.25}}; !slices.Equal(got, want) {
		t.Fatalf("TrustedPeers = %v, want %v", got, want)
	}
	if got, want := a.RatedProducts(), []RatingStatement{{"a", "q", 0.5}, {"a", "p", 0.25}}; !slices.Equal(got, want) {
		t.Fatalf("RatedProducts = %v, want %v", got, want)
	}
}

// TestLoadRejectsWhatSettersReject, and leaves the agent as it was.
func TestLoadRejectsWhatSettersReject(t *testing.T) {
	c := loadedCopy(t, loadFixture(3), func([]int32, []float64) {})
	before := loadFixture(3)
	n, m := int32(c.NumAgents()), int32(c.NumProducts())
	for _, tc := range []struct {
		what string
		err  error
		want error
	}{
		{"self trust", c.LoadTrust(2, []int32{1, 2}, []float64{0.5, 0.5}), ErrSelfTrust},
		{"trust above range", c.LoadTrust(2, []int32{1}, []float64{1.5}), ErrValueRange},
		{"NaN trust", c.LoadTrust(2, []int32{1}, []float64{math.NaN()}), ErrValueRange},
		{"unknown target", c.LoadTrust(2, []int32{n}, []float64{0.5}), ErrUnknownAgent},
		{"negative target", c.LoadTrust(2, []int32{-1}, []float64{0.5}), ErrUnknownAgent},
		{"unknown source", c.LoadTrust(n, nil, nil), ErrUnknownAgent},
		{"rating below range", c.LoadRatings(2, []int32{1}, []float64{-1.5}), ErrValueRange},
		{"NaN rating", c.LoadRatings(2, []int32{1}, []float64{math.NaN()}), ErrValueRange},
		{"unknown product", c.LoadRatings(2, []int32{m}, []float64{0.5}), ErrUnknownProduct},
		{"unknown rater", c.LoadRatings(-1, nil, nil), ErrUnknownAgent},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.what, tc.err, tc.want)
		}
	}
	sameStatements(t, c, before)
}

// TestCloneAfterLoadStillCopies: loaded records carry their generation's
// stamp like any other, so a clone's first write — through a setter or
// through the loader — copies the record instead of writing the one the
// source still serves, installed views included.
func TestCloneAfterLoadStillCopies(t *testing.T) {
	want := loadFixture(5)
	src := loadedCopy(t, want, func([]int32, []float64) {})
	clone := src.Clone()
	a := src.agentRecs[0]
	must(t, clone.SetTrust(a.ID, src.agentIDs[1], -1))
	must(t, clone.SetRating(a.ID, src.prodIDs[0], -1))
	must(t, clone.LoadTrust(3, []int32{4}, []float64{1}))
	must(t, clone.LoadRatings(3, nil, nil))
	if clone.agentRecs[0] == a || clone.agentRecs[3] == src.agentRecs[3] {
		t.Fatal("a clone wrote a record it shares with its source")
	}
	sameStatements(t, src, want)
	if v, _ := clone.Trust(a.ID, src.agentIDs[1]); v != -1 {
		t.Fatalf("the clone's own write is %v", v)
	}
	if got := clone.agentRecs[3].TrustedPeers(); len(got) != 1 || got[0].Dst != src.agentIDs[4] || len(clone.agentRecs[3].Ratings) != 0 {
		t.Fatalf("the clone's loaded rows: %v, %v", got, clone.agentRecs[3].Ratings)
	}
}
