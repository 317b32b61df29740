package strategy

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// popCommunity builds a four-product community over a two-branch taxonomy:
// branch X holds p1/p2 (rated by everyone), branch Y holds p3 (rated by
// one agent) and p4 (rated by nobody).
func popCommunity(t *testing.T) *model.Community {
	t.Helper()
	tax := taxonomy.New("Top")
	bx := tax.MustAdd(taxonomy.Root, "X")
	by := tax.MustAdd(taxonomy.Root, "Y")
	lx := tax.MustAdd(bx, "x-leaf")
	ly := tax.MustAdd(by, "y-leaf")
	comm := model.NewCommunity(tax)
	for i, pid := range []model.ProductID{"urn:p1", "urn:p2", "urn:p3", "urn:p4"} {
		topic := lx
		if i >= 2 {
			topic = ly
		}
		comm.AddProduct(model.Product{ID: pid, Title: string(pid), Topics: []taxonomy.Topic{topic}})
	}
	for _, aid := range []model.AgentID{"http://x/a", "http://x/b", "http://x/c"} {
		comm.AddAgent(aid)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(comm.SetRating(aid, "urn:p1", 1))
		must(comm.SetRating(aid, "urn:p2", 0.5))
	}
	if err := comm.SetRating("http://x/a", "urn:p3", 0.8); err != nil {
		t.Fatal(err)
	}
	// A disliked product must not gain popularity mass.
	if err := comm.SetRating("http://x/b", "urn:p4", -1); err != nil {
		t.Fatal(err)
	}
	return comm
}

func TestPopularityRank(t *testing.T) {
	comm := popCommunity(t)
	rank := PopularityRank(comm)
	if len(rank) != 3 {
		t.Fatalf("rank = %+v, want 3 products (p4 has no positive raters)", rank)
	}
	if rank[0].Product != "urn:p1" || rank[0].Score != 3 || rank[0].Supporters != 3 {
		t.Fatalf("top = %+v", rank[0])
	}
	if rank[1].Product != "urn:p2" || rank[2].Product != "urn:p3" {
		t.Fatalf("order = %+v", rank)
	}
	// Determinism: a recomputation is identical.
	again := PopularityRank(comm)
	for i := range rank {
		if rank[i] != again[i] {
			t.Fatalf("rank not stable: %+v vs %+v", rank[i], again[i])
		}
	}
}

func TestPopularityForSkipsRatedAndPrefersNovel(t *testing.T) {
	comm := popCommunity(t)
	rank := PopularityRank(comm)

	// Agent b rated p1/p2 (branch X) and disliked p4: p3 is both unrated
	// and in the untouched branch Y, so it leads despite the lower score.
	got := PopularityFor(comm, rank, comm.Agent("http://x/b"), 0)
	if len(got) != 1 || got[0].Product != "urn:p3" {
		t.Fatalf("personalized = %+v, want only p3", got)
	}

	// A cold-start agent has rated nothing: pure popularity order, capped.
	cold := comm.AddAgent("http://x/cold")
	got = PopularityFor(comm, rank, cold, 2)
	if len(got) != 2 || got[0].Product != "urn:p1" || got[1].Product != "urn:p2" {
		t.Fatalf("cold-start = %+v", got)
	}

	if PopularityFor(comm, rank, nil, 5) != nil {
		t.Fatal("nil agent must yield nil")
	}
}

// TestNoveltyAtBothCallSites pins the two readers of an agent's touched
// topics — the topics and ancestors of its positive ratings of cataloged
// products, minus the root — and the no-taxonomy policy each keeps: the
// NovelCategories vote and the popularity rung's novel-first partition.
// A peer rates p1..p5 (p1, p2 under X; p3, p4 under Y; p5 unlabelled);
// the active agent likes p1 and dislikes p3, which touches nothing.
func TestNoveltyAtBothCallSites(t *testing.T) {
	for _, tc := range []struct {
		name       string
		taxonomy   bool
		vote, rung []model.ProductID
	}{
		// Only Y's p4 lies outside X, which p1 touched; the vote drops
		// the rest, the rung moves p4 to the front.
		{"taxonomy", true, []model.ProductID{"urn:p4"}, []model.ProductID{"urn:p4", "urn:p2", "urn:p5"}},
		// No taxonomy: the vote treats every labelled product as novel;
		// the rung does no partition.
		{"no taxonomy", false, []model.ProductID{"urn:p2", "urn:p4"}, []model.ProductID{"urn:p2", "urn:p4", "urn:p5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tax *taxonomy.Taxonomy
			x, y := taxonomy.Topic(1), taxonomy.Topic(2)
			if tc.taxonomy {
				tax = taxonomy.New("Top")
				x, y = tax.MustAdd(taxonomy.Root, "X"), tax.MustAdd(taxonomy.Root, "Y")
				x, y = tax.MustAdd(x, "x-leaf"), tax.MustAdd(y, "y-leaf")
			}
			comm := model.NewCommunity(tax)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for i, topics := range [][]taxonomy.Topic{{x}, {x}, {y}, {y}, nil} {
				pid := model.ProductID(fmt.Sprintf("urn:p%d", i+1))
				comm.AddProduct(model.Product{ID: pid, Title: string(pid), Topics: topics})
				must(comm.SetRating("http://x/peer", pid, 1-float64(i)/10))
			}
			must(comm.SetRating("http://x/me", "urn:p1", 0.8))
			must(comm.SetRating("http://x/me", "urn:p3", -0.5))
			me := comm.Agent("http://x/me")

			rec, err := core.New(comm, core.Options{Content: core.NovelCategories, CF: cf.Options{Representation: cf.Product}})
			must(err)
			peer := core.NewPeerRank(comm.Agent("http://x/peer").Ord(), 1)
			peer.Weight = 1
			recs, err := rec.RecommendFromCtx(context.Background(), me.ID, []core.PeerRank{peer}, 0)
			must(err)
			var got []model.ProductID
			for _, r := range recs {
				got = append(got, r.Product)
			}
			if !slices.Equal(got, tc.vote) {
				t.Fatalf("the vote recommends %v, want %v", got, tc.vote)
			}

			got = got[:0]
			for _, r := range PopularityFor(comm, PopularityRank(comm), me, 0) {
				got = append(got, r.Product)
			}
			if !slices.Equal(got, tc.rung) {
				t.Fatalf("the popularity rung answers %v, want %v", got, tc.rung)
			}
		})
	}
}
