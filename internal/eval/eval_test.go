package eval

import (
	"errors"
	"math/rand"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/model"
)

func smallCommunity(t *testing.T, fidelity float64) (*model.Community, *datagen.Meta) {
	t.Helper()
	cfg := datagen.SmallScale()
	cfg.ClusterFidelity = fidelity
	comm, meta := datagen.Generate(cfg)
	return comm, meta
}

func TestTrustVsRandomSimilarity(t *testing.T) {
	comm, _ := smallCommunity(t, 0.9)
	f, err := cf.New(comm, cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy})
	if err != nil {
		t.Fatal(err)
	}
	g := TrustVsRandomSimilarity(comm, f, 300, rand.New(rand.NewSource(1)))
	if g.TrustedPairs == 0 || g.RandomPairs == 0 {
		t.Fatalf("no pairs sampled: %+v", g)
	}
	// With high cluster fidelity, trusted peers must be measurably more
	// similar than random pairs — the paper's [5] correlation claim.
	if g.Gap() <= 0 {
		t.Fatalf("trusted-pair similarity gap = %v, want positive (%+v)", g.Gap(), g)
	}
}

func TestTrustVsRandomSimilarityGapGrowsWithFidelity(t *testing.T) {
	gap := func(fid float64) float64 {
		comm, _ := smallCommunity(t, fid)
		f, err := cf.New(comm, cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy})
		if err != nil {
			t.Fatal(err)
		}
		return TrustVsRandomSimilarity(comm, f, 300, rand.New(rand.NewSource(2))).Gap()
	}
	lo, hi := gap(0.0), gap(0.95)
	if hi <= lo {
		t.Fatalf("gap must grow with fidelity: %v (0.0) vs %v (0.95)", lo, hi)
	}
}

func TestLeaveOneOut(t *testing.T) {
	comm, _ := smallCommunity(t, 0.8)
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
	}
	res, err := LeaveOneOut(comm, factory, 20, 40, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("no trials ran")
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("HitRate = %v", res.HitRate)
	}
	if res.Hits > 0 && (res.MeanRank < 1 || res.MeanRank > 20) {
		t.Fatalf("MeanRank = %v", res.MeanRank)
	}
	// Community restored: stats identical to a fresh generation.
	fresh, _ := smallCommunity(t, 0.8)
	if comm.ComputeStats() != fresh.ComputeStats() {
		t.Fatal("leave-one-out did not restore the community")
	}
}

func TestLeaveOneOutBeatsRandomBaseline(t *testing.T) {
	comm, _ := smallCommunity(t, 0.8)
	rng := rand.New(rand.NewSource(4))
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
	}
	res, err := LeaveOneOut(comm, factory, 20, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Random top-20 of ~300 products would hit ≈6.7% of the time. The
	// pipeline should do clearly better on clustered data.
	if res.HitRate < 0.1 {
		t.Fatalf("HitRate = %v, want ≥ 0.1 (random ≈ 0.067)", res.HitRate)
	}
}

func TestLeaveOneOutNoTrials(t *testing.T) {
	comm := model.NewCommunity(nil)
	comm.AddAgent("a") // no ratings at all
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{CF: cf.Options{Representation: cf.Product}})
	}
	if _, err := LeaveOneOut(comm, factory, 10, 10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoTrials) {
		t.Fatalf("got %v, want ErrNoTrials", err)
	}
}

func TestPrecisionRecall(t *testing.T) {
	comm, _ := smallCommunity(t, 0.8)
	factory := func(c *model.Community) (*core.Recommender, error) {
		return core.New(c, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		})
	}
	pts, err := PrecisionRecall(comm, factory, []int{5, 10, 20}, 30, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Precision < 0 || p.Precision > 1 || p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("out of range: %+v", p)
		}
		if p.F1 > 0 && (p.Precision == 0 || p.Recall == 0) {
			t.Fatalf("inconsistent F1: %+v", p)
		}
	}
	// Recall is non-decreasing in N.
	for i := 1; i < len(pts); i++ {
		if pts[i].Recall < pts[i-1].Recall-1e-9 {
			t.Fatalf("recall decreased with N: %+v", pts)
		}
	}
	// Community restored.
	fresh, _ := smallCommunity(t, 0.8)
	if comm.ComputeStats() != fresh.ComputeStats() {
		t.Fatal("PrecisionRecall did not restore the community")
	}
	if _, err := PrecisionRecall(comm, factory, nil, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty Ns accepted")
	}
}

func TestExposure(t *testing.T) {
	recs := []core.Recommendation{
		{Product: "p1", Score: 3},
		{Product: "evil", Score: 2},
		{Product: "p2", Score: 1},
	}
	e := Exposure(recs, "evil")
	if !e.Recommended || e.Rank != 2 || e.Score != 2 {
		t.Fatalf("Exposure = %+v", e)
	}
	if got := Exposure(recs, "missing"); got.Recommended || got.Rank != 0 {
		t.Fatalf("absent product = %+v", got)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Fatalf("MeanStd = %v,%v, want 5,2", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd must be 0,0")
	}
}
