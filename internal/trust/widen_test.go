package trust

import (
	"context"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

func TestWidenOneHopRecruitsFrontier(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"src", "a", 1.0},
		{"a", "b", 0.8}, {"a", "bad", -0.9},
		{"b", "c", 1.0},
	})
	nb := &Neighborhood{Source: ordOf(net, "src"), Ranks: []Rank{rankIn(net, "a", 0.6)}, Explored: 2}
	wide := WidenOneHop(net, nb, 0.5)

	ranks := make(map[model.AgentID]float64, len(wide.Ranks))
	for _, r := range nameIn(net, wide).Ranks {
		ranks[r.Agent] = r.Trust
	}
	if ranks["a"] != 0.6 {
		t.Fatalf("existing member rank changed: %v", ranks)
	}
	// b joins via a: 0.5 (decay) * 0.6 (a's rank) * 0.8 (a->b).
	if got, want := ranks["b"], 0.5*0.6*0.8; got != want {
		t.Fatalf("b rank = %v, want %v", got, want)
	}
	if _, ok := ranks["bad"]; ok {
		t.Fatal("distrust recruited a peer")
	}
	if _, ok := ranks["c"]; ok {
		t.Fatal("widening went two hops")
	}
	if wide.Explored <= nb.Explored {
		t.Fatal("explored count did not grow")
	}
	if len(nb.Ranks) != 1 {
		t.Fatal("input neighborhood was modified")
	}
}

func TestWidenOneHopSourceContributesAtMaxRank(t *testing.T) {
	// The source's own statements widen too, at the neighborhood's max
	// rank — and with an empty neighborhood, at rank 1.
	net := build(t, [][3]interface{}{{"src", "d", 0.9}})
	empty := &Neighborhood{Source: ordOf(net, "src")}
	wide := WidenOneHop(net, empty, 0.5)
	if len(wide.Ranks) != 1 || wide.Ranks[0] != rankIn(net, "d", 0.5*0.9) {
		t.Fatalf("empty-neighborhood widening = %+v", wide.Ranks)
	}
}

func TestWidenOneHopKeepsStrongestContribution(t *testing.T) {
	// The source is no agent of this community: it contributes nothing.
	net := build(t, [][3]interface{}{
		{"a", "x", 1.0},
		{"b", "x", 1.0},
	})
	nb := &Neighborhood{Source: -1, Ranks: []Rank{rankIn(net, "a", 0.9), rankIn(net, "b", 0.2)}}
	wide := WidenOneHop(net, nb, 0.5)
	for _, r := range nameIn(net, wide).Ranks {
		if r.Agent == "x" && r.Trust != 0.5*0.9 {
			t.Fatalf("x rank = %v, want the stronger contribution %v", r.Trust, 0.5*0.9)
		}
	}
}

// TestWidenOneHopUnknownSourceContributesNothing: a source the community
// does not know (Source -1) neither recruits nor counts as explored; the
// members still widen.
func TestWidenOneHopUnknownSourceContributesNothing(t *testing.T) {
	net := build(t, [][3]interface{}{{"a", "x", 1.0}, {"src", "y", 0.5}})
	member := rankIn(net, "a", 0.9)
	wide := WidenOneHop(net, &Neighborhood{Source: -1, Ranks: []Rank{member}}, 0.5)
	if len(wide.Ranks) != 2 || wide.Ranks[0] != member || wide.Ranks[1] != rankIn(net, "x", 0.5*0.9) {
		t.Fatalf("widened from an unknown source: %+v, want the member and its x", wide.Ranks)
	}
	if wide.Explored != 1 {
		t.Fatalf("explored %d contributors, want the member alone", wide.Explored)
	}
	// The same source by its ordinal recruits y as well.
	wide = WidenOneHop(net, &Neighborhood{Source: ordOf(net, "src"), Ranks: []Rank{member}}, 0.5)
	if len(wide.Ranks) != 3 || wide.Explored != 2 {
		t.Fatalf("widened from a known source: %+v (explored %d), want x and y recruited", wide.Ranks, wide.Explored)
	}
}

func TestWidenOneHopDeterministicOrder(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"src", "p1", 0.7},
		{"src", "p2", 0.7},
		{"src", "p3", 0.7},
	})
	nb := &Neighborhood{Source: ordOf(net, "src")}
	first := WidenOneHop(net, nb, 0.5)
	for i := 0; i < 10; i++ {
		again := WidenOneHop(net, nb, 0.5)
		for j := range first.Ranks {
			if first.Ranks[j] != again.Ranks[j] {
				t.Fatalf("run %d: rank order flapped: %+v vs %+v", i, first.Ranks, again.Ranks)
			}
		}
	}
	// Equal trust sorts by agent URI.
	if named := nameIn(net, first); named.Ranks[0].Agent != "p1" || named.Ranks[1].Agent != "p2" || named.Ranks[2].Agent != "p3" {
		t.Fatalf("tie order = %+v", first.Ranks)
	}
}

// TestWidenCommunityPathMatchesGeneric pins the ordinal walk to the
// URI-generic oracle over every agent of a generated community, one call
// after the other — so each call but the first runs on the pooled table
// the previous one handed back, which must have been left zero.
func TestWidenCommunityPathMatchesGeneric(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents, cfg.Products = 150, 60
	comm, _ := datagen.Generate(cfg)
	adj, oracle := comm.Adjacency(), plainNet{comm}
	for _, opt := range []AppleseedOptions{{}, {MaxNodes: 5}} {
		for _, src := range comm.Agents() {
			nb, err := Appleseed(context.Background(), adj, ordOf(adj, src), opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, want := nameIn(adj, WidenOneHop(adj, nb, 0.5)), widenGeneric(oracle, nameIn(adj, nb), 0.5)
			if got.Explored != want.Explored || len(got.Ranks) != len(want.Ranks) {
				t.Fatalf("%s: explored %d, %d ranks; generic %d, %d", src, got.Explored, len(got.Ranks), want.Explored, len(want.Ranks))
			}
			for i, r := range got.Ranks {
				if r.Agent != want.Ranks[i].Agent || r.Trust != want.Ranks[i].Trust {
					t.Fatalf("%s rank %d: %s %v, generic %s %v", src, i, r.Agent, r.Trust, want.Ranks[i].Agent, want.Ranks[i].Trust)
				}
			}
		}
	}
}
