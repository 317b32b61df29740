package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// rowsOf returns copies of agent a's rows, as a serialized community
// stores them.
func rowsOf(a *Agent) (trust, ratings Row) {
	return slices.Clone(a.trust), slices.Clone(a.ratings)
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
func loadedCopy(t *testing.T, want *Community, permute func(Row)) *Community {
	t.Helper()
	got := registeredCopy(want)
	for _, a := range want.agentRecs {
		trust, ratings := rowsOf(a)
		permute(trust)
		permute(ratings)
		if err := got.LoadTrust(a.ord, trust); err != nil {
			t.Fatal(err)
		}
		if err := got.LoadRatings(a.ord, ratings); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// sameStatements fails unless got states what want does, row for row.
func sameStatements(t *testing.T, got, want *Community) {
	t.Helper()
	for ord, w := range want.agentRecs {
		g := got.agentRecs[ord]
		if !sameRow(g.TrustedPeers(), w.TrustedPeers()) || !sameRow(g.RatedProducts(), w.RatedProducts()) {
			t.Fatalf("%s: rows differ:\n%v %v\n%v %v", w.ID, g.TrustedPeers(), g.RatedProducts(), w.TrustedPeers(), w.RatedProducts())
		}
	}
}

func sameRow(g, w Row) bool { return slices.Equal(g, w) }

// adopted reports whether r is the row that arrived as in: the same
// array, not a copy.
func adopted(r, in Row) bool { return len(in) > 0 && &r[0] == &in[0] }

// TestLoadedEqualsSetterBuilt: an agent loaded from rows in served order
// equals the one built statement by statement, and keeps the arrays it
// was handed instead of copying them.
func TestLoadedEqualsSetterBuilt(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		want := loadFixture(seed)
		got := registeredCopy(want)
		for _, a := range want.agentRecs {
			trust, ratings := rowsOf(a)
			must(t, got.LoadTrust(a.ord, trust))
			must(t, got.LoadRatings(a.ord, ratings))
			g := got.agentRecs[a.ord]
			if len(trust) > 0 && !adopted(g.TrustedPeers(), trust) || len(ratings) > 0 && !adopted(g.RatedProducts(), ratings) {
				t.Fatalf("seed %d %s: an in-order row was copied", seed, a.ID)
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
	load := func(rows func(a *Agent) Row, into func(int32, Row) error) {
		for _, a := range want.agentRecs {
			if err := into(a.ord, rows(a)); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}
	go load(func(a *Agent) Row {
		trust, _ := rowsOf(a)
		return trust
	}, got.LoadTrust)
	go load(func(a *Agent) Row {
		_, ratings := rowsOf(a)
		return ratings
	}, got.LoadRatings)
	for i := 0; i < 2; i++ {
		must(t, <-errs)
	}
	sameStatements(t, got, loadedCopy(t, want, func(Row) {}))
	sameStatements(t, got, want)
}

// TestLoadOutOfOrderRowIsSorted: a row that is not in served order —
// reversed, or stating one target twice — is still the agent's function
// (the later statement wins, as under the setters) and is installed in
// served order, not adopted.
func TestLoadOutOfOrderRowIsSorted(t *testing.T) {
	want := loadFixture(7)
	got := loadedCopy(t, want, func(r Row) { slices.Reverse(r) })
	sameStatements(t, got, want)

	// (b 0.5)(c 0.5)(b 0.25) is descending, and states b twice.
	c := NewCommunity(nil)
	for _, id := range []AgentID{"a", "b", "c"} {
		c.AddAgent(id)
	}
	c.AddProduct(Product{ID: "p"})
	c.AddProduct(Product{ID: "q"})
	must(t, c.LoadTrust(0, Row{{1, 0.5}, {2, 0.5}, {1, 0.25}}))
	must(t, c.LoadRatings(0, Row{{0, 0.5}, {1, 0.5}, {0, 0.25}}))
	a := c.Agent("a")
	if got, want := c.TrustStatements(a), []TrustStatement{{"a", "c", 0.5}, {"a", "b", 0.25}}; !slices.Equal(got, want) {
		t.Fatalf("TrustedPeers = %v, want %v", got, want)
	}
	if got, want := c.RatingStatements(a), []RatingStatement{{"a", "q", 0.5}, {"a", "p", 0.25}}; !slices.Equal(got, want) {
		t.Fatalf("RatedProducts = %v, want %v", got, want)
	}

	// Past 16 entries the repeat is found without a sort: a descending row
	// of 18 that states its first target again last is installed entry by
	// entry, and the same row without the repeat is adopted.
	long := registeredCopy(sizedLoadFixture(1, 20, 20))
	var row Row
	for k := int32(1); k <= 17; k++ {
		row = append(row, Entry{k, 1 - float64(k)/20})
	}
	row = append(row, Entry{1, 0.05})
	for _, rel := range []struct {
		name string
		load func(*Community) func(int32, Row) error
		set  func(*Community, Entry) error
		row  func(*Agent) Row
	}{
		{"trust", func(c *Community) func(int32, Row) error { return c.LoadTrust },
			func(c *Community, e Entry) error { return c.SetTrust(c.agentIDs[0], c.agentIDs[e.Ord], e.Val) }, (*Agent).TrustedPeers},
		{"ratings", func(c *Community) func(int32, Row) error { return c.LoadRatings },
			func(c *Community, e Entry) error { return c.SetRating(c.agentIDs[0], c.prodIDs[e.Ord], e.Val) }, (*Agent).RatedProducts},
	} {
		got, set := registeredCopy(long), registeredCopy(long)
		must(t, rel.load(got)(0, slices.Clone(row)))
		for _, e := range row {
			must(t, rel.set(set, e))
		}
		if g, w := rel.row(got.agentRecs[0]), rel.row(set.agentRecs[0]); !slices.Equal(g, w) || len(g) != 17 || g[16] != row[17] {
			t.Fatalf("%s: a long row stating a target twice loaded as %v, the setters build %v", rel.name, g, w)
		}
		distinct := slices.Clone(row[:17])
		must(t, rel.load(got)(0, distinct))
		if !adopted(rel.row(got.agentRecs[0]), distinct) {
			t.Fatalf("%s: a long in-order row was copied", rel.name)
		}
	}
}

// TestLoadRejectsWhatSettersReject, and leaves the agent as it was.
func TestLoadRejectsWhatSettersReject(t *testing.T) {
	c := loadedCopy(t, loadFixture(3), func(Row) {})
	before := loadFixture(3)
	n, m := int32(c.NumAgents()), int32(c.NumProducts())
	for _, tc := range []struct {
		what string
		err  error
		want error
	}{
		{"self trust", c.LoadTrust(2, Row{{1, 0.5}, {2, 0.5}}), ErrSelfTrust},
		{"trust above range", c.LoadTrust(2, Row{{1, 1.5}}), ErrValueRange},
		{"NaN trust", c.LoadTrust(2, Row{{1, math.NaN()}}), ErrValueRange},
		{"unknown target", c.LoadTrust(2, Row{{n, 0.5}}), ErrUnknownAgent},
		{"negative target", c.LoadTrust(2, Row{{-1, 0.5}}), ErrUnknownAgent},
		{"unknown source", c.LoadTrust(n, nil), ErrUnknownAgent},
		{"rating below range", c.LoadRatings(2, Row{{1, -1.5}}), ErrValueRange},
		{"NaN rating", c.LoadRatings(2, Row{{1, math.NaN()}}), ErrValueRange},
		{"unknown product", c.LoadRatings(2, Row{{m, 0.5}}), ErrUnknownProduct},
		{"unknown rater", c.LoadRatings(-1, nil), ErrUnknownAgent},
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
// source still serves, rows included.
func TestCloneAfterLoadStillCopies(t *testing.T) {
	want := loadFixture(5)
	src := loadedCopy(t, want, func(Row) {})
	clone := src.Clone()
	a := src.agentRecs[0]
	must(t, clone.SetTrust(a.ID, src.agentIDs[1], -1))
	must(t, clone.SetRating(a.ID, src.prodIDs[0], -1))
	must(t, clone.LoadTrust(3, Row{{4, 1}}))
	must(t, clone.LoadRatings(3, nil))
	if clone.agentRecs[0] == a || clone.agentRecs[3] == src.agentRecs[3] {
		t.Fatal("a clone wrote a record it shares with its source")
	}
	sameStatements(t, src, want)
	if v, _ := clone.Trust(a.ID, src.agentIDs[1]); v != -1 {
		t.Fatalf("the clone's own write is %v", v)
	}
	if got := clone.agentRecs[3]; !sameRow(got.TrustedPeers(), Row{{4, 1}}) || len(got.RatedProducts()) != 0 {
		t.Fatalf("the clone's loaded rows: %v, %v", got.TrustedPeers(), got.RatedProducts())
	}
}
