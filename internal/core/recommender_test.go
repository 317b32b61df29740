package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
	"swrec/internal/trust"
)

// scenario builds a small book community:
//
//	alice --1.0--> bob --0.9--> dave
//	alice --0.8--> carol
//	mallory: no trust path, but clones alice's rating profile (§3.2's
//	         attack: "malicious agents can accomplish high similarity with
//	         a_i by simply copying its profile").
func scenario(t *testing.T) *model.Community {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	fic, _ := tax.Lookup("Books/Fiction")
	phy, _ := tax.Lookup("Books/Science/Physics")

	products := []model.Product{
		{ID: "alg1", Topics: []taxonomy.Topic{alg}},
		{ID: "alg2", Topics: []taxonomy.Topic{alg}},
		{ID: "calc1", Topics: []taxonomy.Topic{calc}},
		{ID: "fic1", Topics: []taxonomy.Topic{fic}},
		{ID: "fic2", Topics: []taxonomy.Topic{fic}},
		{ID: "phy1", Topics: []taxonomy.Topic{phy}},
		{ID: "evil", Topics: []taxonomy.Topic{alg}},
	}
	for _, p := range products {
		c.AddProduct(p)
	}

	trustEdge := func(s, d model.AgentID, v float64) {
		if err := c.SetTrust(s, d, v); err != nil {
			t.Fatal(err)
		}
	}
	rate := func(a model.AgentID, p model.ProductID, v float64) {
		if err := c.SetRating(a, p, v); err != nil {
			t.Fatal(err)
		}
	}

	trustEdge("alice", "bob", 1.0)
	trustEdge("alice", "carol", 0.8)
	trustEdge("bob", "dave", 0.9)

	rate("alice", "alg1", 1)
	rate("alice", "fic1", 0.5)

	rate("bob", "alg1", 0.9)
	rate("bob", "alg2", 1) // bob recommends alg2
	rate("bob", "calc1", 0.7)

	rate("carol", "fic1", 0.8)
	rate("carol", "fic2", 1) // carol recommends fic2
	rate("carol", "phy1", -0.9)

	rate("dave", "alg2", 0.6)
	rate("dave", "phy1", 0.4)

	// mallory clones alice's profile and pushes "evil".
	rate("mallory", "alg1", 1)
	rate("mallory", "fic1", 0.5)
	rate("mallory", "evil", 1)

	return c
}

func defaultOpts() Options {
	return Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
}

func TestRecommendBasics(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	seen := map[model.ProductID]bool{}
	for i, rec := range recs {
		if rec.Product == "alg1" || rec.Product == "fic1" {
			t.Fatalf("recommended a product alice already rated: %s", rec.Product)
		}
		if rec.Score <= 0 {
			t.Fatalf("non-positive score: %+v", rec)
		}
		if i > 0 && recs[i-1].Score < rec.Score {
			t.Fatal("recommendations not sorted by score")
		}
		if seen[rec.Product] {
			t.Fatalf("duplicate recommendation %s", rec.Product)
		}
		seen[rec.Product] = true
	}
	// alg2 is supported by both bob (high trust, high sim) and dave.
	if recs[0].Product != "alg2" {
		t.Fatalf("top recommendation = %s, want alg2", recs[0].Product)
	}
	if recs[0].Supporters != 2 {
		t.Fatalf("alg2 supporters = %d, want 2", recs[0].Supporters)
	}
}

func TestTrustShieldsAgainstProfileCloning(t *testing.T) {
	c := scenario(t)

	// Pure CF over the whole community: mallory's cloned profile makes it
	// a top peer and its "evil" product gets recommended.
	pure, err := New(c, Options{
		Metric:   NoTrust,
		AlphaSet: true, Alpha: 0,
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pure.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range recs {
		if rec.Product == "evil" {
			found = true
		}
	}
	if !found {
		t.Fatal("pure CF should fall for the cloned profile and recommend 'evil'")
	}

	// Trust-filtered pipeline: mallory is unreachable in the trust graph,
	// so 'evil' cannot be recommended.
	hybrid, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	hrecs, err := hybrid.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range hrecs {
		if rec.Product == "evil" {
			t.Fatal("trust-filtered recommender recommended the attacker's product")
		}
	}
	peers, err := hybrid.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if nameOf(c, p.Ord()) == "mallory" {
			t.Fatal("mallory must not be in the trust neighborhood")
		}
	}
}

func TestAlphaExtremes(t *testing.T) {
	c := scenario(t)
	// α = 1: weight equals normalized trust rank.
	tr, err := New(c, Options{
		Alpha: 1,
		CF:    cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		t.Fatal(err)
	}
	peers, err := tr.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if p.Weight != p.Trust {
			t.Fatalf("α=1 weight %v != trust %v for %s", p.Weight, p.Trust, nameOf(c, p.Ord()))
		}
	}
	if top := nameOf(c, peers[0].Ord()); top != "bob" {
		t.Fatalf("highest-trust peer = %s, want bob", top)
	}

	// α = 0 (explicit): weight equals clamped similarity.
	sim, err := New(c, Options{
		AlphaSet: true, Alpha: 0,
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	})
	if err != nil {
		t.Fatal(err)
	}
	speers, err := sim.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range speers {
		want := p.Sim
		if want < 0 {
			want = 0
		}
		if p.Weight != want {
			t.Fatalf("α=0 weight %v != clamped sim %v for %s", p.Weight, p.Sim, nameOf(c, p.Ord()))
		}
	}
}

func TestTrustThreshold(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.TrustThreshold = 0.99 // only the top-ranked peer survives
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	peers, err := r.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 {
		t.Fatalf("threshold 0.99 kept %d peers, want 1", len(peers))
	}
	if peers[0].Trust != 1 {
		t.Fatalf("surviving peer trust = %v, want 1 (the max)", peers[0].Trust)
	}
}

func TestMaxNeighbors(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.MaxNeighbors = 2
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	peers, err := r.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("MaxNeighbors=2 kept %d", len(peers))
	}
}

func TestNovelCategories(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.Content = NovelCategories
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	// alice touched Algebra and Fiction (and their ancestors). Novel
	// recommendations may only come from untouched branches: calc1
	// (Calculus) and phy1 (Physics) qualify; alg2/fic2 do not.
	for _, rec := range recs {
		if rec.Product == "alg2" || rec.Product == "fic2" {
			t.Fatalf("non-novel product recommended in NovelCategories mode: %s", rec.Product)
		}
	}
	var gotCalc bool
	for _, rec := range recs {
		if rec.Product == "calc1" {
			gotCalc = true
		}
	}
	if !gotCalc {
		t.Fatalf("calc1 (untouched Calculus branch) missing from novel recs: %+v", recs)
	}
}

func TestNegativePeerRatingsNeverRecommended(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Product == "phy1" && rec.Supporters > 1 {
			t.Fatal("carol's negative phy1 rating must not count as a vote")
		}
	}
}

func TestUnknownActiveAgent(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RankedPeers("ghost"); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("got %v, want ErrUnknownAgent", err)
	}
	if _, err := r.Recommend("ghost", 5); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("got %v, want ErrUnknownAgent", err)
	}
}

// An agent the community does not know has no ordinal for a trust metric
// to walk from: stage 1 answers with the empty neighborhood itself.
func TestUnknownSourceNeighborhoodIsEmpty(t *testing.T) {
	c := scenario(t)
	for _, m := range []Metric{Appleseed, Advogato, PathTrust} {
		opt := defaultOpts()
		opt.Metric = m
		r, err := New(c, opt)
		if err != nil {
			t.Fatalf("[%v] %v", m, err)
		}
		nb, err := r.Neighborhood("ghost")
		if err != nil || nb.Source != -1 || len(nb.Ranks) != 0 {
			t.Fatalf("[%v] neighborhood of an unknown agent = %+v, %v; want empty", m, nb, err)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	c := scenario(t)
	if _, err := New(c, Options{Alpha: 2}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := New(c, Options{AlphaSet: true, Alpha: -0.1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := New(c, Options{TrustThreshold: 1}); err == nil {
		t.Fatal("threshold 1 accepted")
	}
	if _, err := New(c, Options{TrustThreshold: -0.1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := New(c, Options{MaxNeighbors: -1}); err == nil {
		t.Fatal("negative neighbor bound accepted")
	}
	// Zero bounds are not "no bound": they resolve to the defaults, in the
	// recommender and in what a checkpoint signs alike.
	eff := Options{}.WithDefaults()
	if eff.MaxNeighbors != DefaultMaxNeighbors || eff.TrustThreshold != DefaultTrustThreshold ||
		eff.Appleseed.MaxNodes != trust.DefaultMaxNodes {
		t.Fatalf("zero options resolve to M=%d floor=%v R=%d", eff.MaxNeighbors, eff.TrustThreshold, eff.Appleseed.MaxNodes)
	}
	if again := eff.WithDefaults(); again.MaxNeighbors != eff.MaxNeighbors || again.TrustThreshold != eff.TrustThreshold || again.Appleseed != eff.Appleseed {
		t.Fatal("WithDefaults is not idempotent")
	}
	bare := model.NewCommunity(nil)
	if _, err := New(bare, defaultOpts()); err == nil {
		t.Fatal("taxonomy CF over taxonomy-less community accepted")
	}
	// ForTaxonomy adapts the same options to it, and leaves them alone
	// where a taxonomy exists.
	if _, err := New(bare, defaultOpts().ForTaxonomy(false)); err != nil {
		t.Fatalf("options adapted to a taxonomy-less community: %v", err)
	}
	if got := defaultOpts().ForTaxonomy(true).CF; got != defaultOpts().CF {
		t.Fatalf("ForTaxonomy(true) changed CF to %+v", got)
	}
}

func TestTopNTruncation(t *testing.T) {
	c := scenario(t)
	r, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skip("scenario too small")
	}
	one, err := r.Recommend("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != all[0] {
		t.Fatalf("top-1 = %+v, want %+v", one, all[0])
	}
}

func TestMetricChoices(t *testing.T) {
	c := scenario(t)
	for _, m := range []Metric{Appleseed, Advogato, PathTrust, NoTrust} {
		opt := defaultOpts()
		opt.Metric = m
		r, err := New(c, opt)
		if err != nil {
			t.Fatalf("[%v] %v", m, err)
		}
		nb, err := r.Neighborhood("alice")
		if err != nil {
			t.Fatalf("[%v] %v", m, err)
		}
		if !ranks(c, nb, "bob") {
			t.Fatalf("[%v] direct peer bob missing from neighborhood", m)
		}
		if m != NoTrust && ranks(c, nb, "mallory") {
			t.Fatalf("[%v] unreachable mallory in neighborhood", m)
		}
	}
	if Appleseed.String() != "appleseed" || NoTrust.String() != "none" {
		t.Fatal("Metric.String broken")
	}
}

func TestBordaMerge(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.Merge = BordaCount
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	peers, err := r.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) == 0 {
		t.Fatal("no peers")
	}
	// Borda weights live in [0,1]; the top peer of both orderings gets 1.
	for _, p := range peers {
		if p.Weight < 0 || p.Weight > 1 {
			t.Fatalf("borda weight out of range: %+v", p)
		}
	}
	// bob leads the trust ordering, carol the similarity ordering; with
	// three peers both blend to 0.5·1 + 0.5·(2/3) = 5/6, tied ahead of
	// dave (negative correlation → similarity Borda 0).
	if nameOf(c, peers[0].Ord()) != "bob" || nameOf(c, peers[1].Ord()) != "carol" {
		t.Fatalf("borda order = %+v, want bob,carol first (ID tiebreak)", peers)
	}
	if diff := peers[0].Weight - 5.0/6; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("top borda weight = %v, want 5/6", peers[0].Weight)
	}
	if last := peers[len(peers)-1]; nameOf(c, last.Ord()) != "dave" || last.Weight >= peers[0].Weight {
		t.Fatalf("dave should rank last: %+v", peers)
	}
	// Recommendations still work end to end.
	recs, err := r.Recommend("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("borda pipeline produced nothing")
	}
	// α extremes reduce to single-ordering Borda.
	pureTrust := defaultOpts()
	pureTrust.Merge = BordaCount
	pureTrust.Alpha = 1
	rt, err := New(c, pureTrust)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := rt.RankedPeers("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tp); i++ {
		if tp[i-1].Trust < tp[i].Trust {
			t.Fatal("α=1 borda must order by trust")
		}
	}
	if ScoreBlend.String() != "score-blend" || BordaCount.String() != "borda" {
		t.Fatal("MergeMode.String broken")
	}
}

func TestContentBoost(t *testing.T) {
	c := scenario(t)
	plain, err := New(c, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	boostOpt := defaultOpts()
	boostOpt.ContentBoost = 2
	boosted, err := New(c, boostOpt)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := plain.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	br, err := boosted.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr) != len(br) {
		t.Fatalf("boost changed candidate set: %d vs %d", len(pr), len(br))
	}
	// alg2 (Algebra — alice's dominant branch) must gain more relative
	// score than phy1 (Physics — a branch her profile barely touches).
	score := func(recs []Recommendation, p model.ProductID) float64 {
		for _, r := range recs {
			if r.Product == p {
				return r.Score
			}
		}
		t.Fatalf("product %s missing", p)
		return 0
	}
	algGain := score(br, "alg2") / score(pr, "alg2")
	phyGain := score(br, "phy1") / score(pr, "phy1")
	if algGain <= phyGain {
		t.Fatalf("content boost must favor on-profile products: alg %v vs phy %v",
			algGain, phyGain)
	}
	if algGain > 3 || algGain < 1 {
		t.Fatalf("boost factor out of [1, 1+β] bounds: %v", algGain)
	}
	// Validation.
	bad := defaultOpts()
	bad.ContentBoost = -1
	if _, err := New(c, bad); err == nil {
		t.Fatal("negative boost accepted")
	}
	noTax := model.NewCommunity(nil)
	if _, err := New(noTax, Options{
		ContentBoost: 1,
		CF:           cf.Options{Representation: cf.Product},
	}); err == nil {
		t.Fatal("content boost without taxonomy accepted")
	}
}

func TestCandidatesOverride(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.Candidates = func(model.AgentID) []model.AgentID {
		return []model.AgentID{"carol", "alice", "ghost"} // active + unknown filtered
	}
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := r.Neighborhood("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Ranks) != 1 || nameOf(c, nb.Ranks[0].Ord()) != "carol" {
		t.Fatalf("candidate neighborhood = %+v, want just carol", nb.Ranks)
	}
	recs, err := r.Recommend("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		// Only carol votes: her positively rated unseen products.
		if rec.Product != "fic2" {
			t.Fatalf("unexpected recommendation %s from candidate-restricted pipeline", rec.Product)
		}
	}
}

func TestPathTrustPipeline(t *testing.T) {
	c := scenario(t)
	opt := defaultOpts()
	opt.Metric = PathTrust
	r, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.Recommend("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("PathTrust pipeline produced nothing")
	}
}

// TestNoTrustAndCandidatesCarryOrdinals: the two neighborhoods no trust
// metric walks — every other agent (NoTrust) and a Candidates hook's list
// — carry each peer's ordinal as a walk's ranks do, and answer what their
// oracles answer: the neighborhood spelled out by hand, synthesized, and
// the naive vote over the result.
func TestNoTrustAndCandidatesCarryOrdinals(t *testing.T) {
	cfg := datagen.SmallScale()
	cfg.Agents = 120
	comm, _ := datagen.Generate(cfg)
	ids := comm.Agents()
	pick := []model.AgentID{ids[7], "ghost", ids[3], ids[0], ids[90]}
	noTrust, cands := defaultOpts(), defaultOpts()
	noTrust.Metric = NoTrust
	cands.Candidates = func(model.AgentID) []model.AgentID { return pick }
	for _, tc := range []struct {
		name   string
		opt    Options
		listed []model.AgentID
	}{{"none", noTrust, ids}, {"candidates", cands, pick}} {
		r, err := New(comm, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, active := range []model.AgentID{ids[0], ids[55]} {
			want := &trust.Neighborhood{Source: comm.Agent(active).Ord()}
			for _, id := range tc.listed {
				if a := comm.Agent(id); a != nil && id != active {
					want.Ranks = append(want.Ranks, trust.NewRank(a.Ord(), 1))
				}
			}
			nb, err := r.Neighborhood(active)
			if err != nil || !slices.Equal(nb.Ranks, want.Ranks) {
				t.Fatalf("%s from %s: neighborhood %+v, %v; want %+v", tc.name, active, nb.Ranks, err, want.Ranks)
			}
			peers, err := r.RankedPeers(active)
			if err != nil {
				t.Fatal(err)
			}
			wantPeers, err := r.SynthesizeCtx(context.Background(), active, want)
			if err != nil || !slices.Equal(peers, wantPeers) {
				t.Fatalf("%s from %s: ranked %+v, oracle %+v (%v)", tc.name, active, peers, wantPeers, err)
			}
			recs, err := r.RecommendFromCtx(context.Background(), active, peers, 0)
			if want := naiveVote(r, active, peers, 0); err != nil || len(recs) == 0 || !slices.Equal(recs, want) {
				t.Fatalf("%s from %s: vote %+v, oracle %+v (%v)", tc.name, active, recs, want, err)
			}
		}
	}
}

// TestParseMetricInvertsString: every metric survives String then
// ParseMetric, and a name no metric has is an error.
func TestParseMetricInvertsString(t *testing.T) {
	for _, m := range []Metric{Appleseed, Advogato, PathTrust, NoTrust} {
		if got, err := ParseMetric(m.String()); err != nil || got != m {
			t.Errorf("ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, s := range []string{"", "Appleseed", Metric(99).String()} {
		if m, err := ParseMetric(s); err == nil {
			t.Errorf("ParseMetric(%q) = %v, want an error", s, m)
		}
	}
}
