package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// tieCommunity builds a community whose vote is mostly score ties: forty
// products, eight voters who rate overlapping blocks of them with the
// same value, an active agent who has rated a few. Every product sits on
// one of two Fig. 1 topics so content boost has something to act on.
func tieCommunity(t *testing.T) (*model.Community, []PeerRank) {
	t.Helper()
	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	fic, _ := tax.Lookup("Books/Fiction")
	c := model.NewCommunity(tax)
	for i := 0; i < 40; i++ {
		topic := alg
		if i%3 == 0 {
			topic = fic
		}
		c.AddProduct(model.Product{ID: model.ProductID(fmt.Sprintf("p%02d", (i*7)%40)), Topics: []taxonomy.Topic{topic}})
	}
	rate := func(a string, p int, v float64) {
		t.Helper()
		if err := c.SetRating(model.AgentID(a), model.ProductID(fmt.Sprintf("p%02d", p)), v); err != nil {
			t.Fatal(err)
		}
	}
	rate("active", 0, 1)
	rate("active", 1, -0.5)
	rate("active", 2, 0.4)
	// Voters of higher blocks come first, so candidates are created in
	// roughly descending ID order and the tie-break has work to do.
	var peers []PeerRank
	for v := 7; v >= 0; v-- {
		name := fmt.Sprintf("voter%d", v)
		for p := v * 4; p < v*4+12; p++ {
			rate(name, p%40, 0.5)
		}
		rate(name, (v*5+3)%40, -1) // a dislike never votes
		// Equal weights in pairs, one voter without weight.
		p := NewPeerRank(c.Agent(model.AgentID(name)).Ord(), 1)
		p.Weight = float64(v/2) * 0.25
		peers = append(peers, p)
	}
	return c, peers
}

// naiveVote is the §3.4 vote written the obvious way — a map of
// accumulators, a full sort — as the oracle for the CSR scan and the
// bounded selection.
func naiveVote(r *Recommender, active model.AgentID, peers []PeerRank, boost float64) []Recommendation {
	act := r.comm.Agent(active)
	type tally struct {
		score      float64
		supporters int
	}
	acc := make(map[model.ProductID]*tally)
	var order []model.ProductID
	for _, p := range peers {
		if p.Weight <= 0 {
			continue
		}
		for _, rs := range r.comm.RatingStatements(r.comm.Symbols().AgentAt(p.Ord())) {
			if rs.Value <= 0 {
				break // positives form a prefix
			}
			if _, rated := r.comm.Rating(act.ID, rs.Product); rated {
				continue
			}
			a := acc[rs.Product]
			if a == nil {
				a = &tally{}
				acc[rs.Product] = a
				order = append(order, rs.Product)
			}
			a.score += p.Weight * rs.Value
			a.supporters++
		}
	}
	// The boost's oracle compiles every row afresh, outside the
	// recommender's descriptor matrix.
	gen := profile.New(r.comm.Taxonomy())
	dims := r.comm.Taxonomy().Len()
	sc := profmat.NewScratch(dims)
	if boost > 0 {
		prof, err := gen.ProfileCtx(context.Background(), act, r.comm)
		if err != nil {
			panic(err)
		}
		sc.Load(&prof)
	}
	var out []Recommendation
	for _, id := range order {
		score := acc[id].score
		if boost > 0 {
			g := profmat.NewGatherer(dims, 0)
			gen.NewStreamer().ProductDense(r.comm.Product(id), g)
			row := g.Gather()
			m, _ := sc.CosineTo(&row)
			score *= 1 + boost*max(m, 0)
		}
		out = append(out, Recommendation{Product: id, Score: score, Supporters: acc[id].supporters})
	}
	slices.SortFunc(out, CompareRecommendations)
	return out
}

// TestTopNMatchesFullSortUnderTies: for every answer size around the
// candidate count, with and without content boost, the bounded selection
// returns exactly the prefix of the fully sorted vote — ties broken by
// product ID — in a slice of exactly that size.
func TestTopNMatchesFullSortUnderTies(t *testing.T) {
	c, peers := tieCommunity(t)
	for _, boost := range []float64{0, 1.5} {
		opt := defaultOpts()
		opt.ContentBoost = boost
		r, err := New(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveVote(r, "active", peers, boost)
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].Score == want[i-1].Score {
				ties++
			}
		}
		if len(want) < 20 || ties < 10 {
			t.Fatalf("fixture: %d candidates with %d adjacent ties — not a tie-heavy vote", len(want), ties)
		}
		for _, n := range []int{0, 1, 10, len(want) - 1, len(want), len(want) + 1} {
			got, err := r.RecommendFromCtx(context.Background(), "active", peers, n)
			if err != nil {
				t.Fatal(err)
			}
			k := len(want)
			if n > 0 && n < k {
				k = n
			}
			if !slices.Equal(got, want[:k]) {
				t.Fatalf("boost %v, n=%d:\n got %+v\nwant %+v", boost, n, got, want[:k])
			}
			if cap(got) != len(got) {
				t.Fatalf("boost %v, n=%d: answer of %d items holds an array of %d", boost, n, len(got), cap(got))
			}
		}
	}
}

// TestVoteLeavesPooledStateClean: a vote cancelled halfway and a vote
// for another agent must not leak sentinels or accumulators into the
// next one through the pooled scratch.
func TestVoteLeavesPooledStateClean(t *testing.T) {
	c, peers := tieCommunity(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := naiveVote(r, "active", peers, 0)
	// Long enough for the vote to reach its second ctx check (every 16
	// peers), where the context reports cancellation.
	long := append(append(append(append([]PeerRank(nil), peers...), peers...), peers...), peers...)
	for i := 0; i < 3; i++ {
		ctx := &cancelAfter{Context: context.Background(), calls: 1}
		if _, err := r.RecommendFromCtx(ctx, "active", long, 5); err != context.Canceled {
			t.Fatalf("cancelled vote returned %v", err)
		}
		if _, err := r.RecommendFromCtx(context.Background(), "voter0", peers, 0); err != nil {
			t.Fatal(err)
		}
		got, err := r.RecommendFromCtx(context.Background(), "active", peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: vote after a cancelled one:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// cancelAfter reports context.Canceled from the calls-th Err call on.
type cancelAfter struct {
	context.Context
	calls int
}

func (c *cancelAfter) Err() error {
	if c.calls--; c.calls < 0 {
		return context.Canceled
	}
	return nil
}
