package datagen

import (
	"math/rand"
	"testing"

	"swrec/internal/isbn"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

func TestGenerateTaxonomyPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	book := GenerateTaxonomy(BookTaxonomy(), rng)
	if got := book.Len(); got != 21845 {
		t.Fatalf("book taxonomy topics = %d, want 21845 (>20,000 per §4)", got)
	}
	bs := book.ComputeStats()
	if bs.MaxDepth != 7 {
		t.Fatalf("book depth = %d, want 7", bs.MaxDepth)
	}

	unspsc := GenerateTaxonomy(UNSPSCTaxonomy(), rng)
	us := unspsc.ComputeStats()
	if us.MaxDepth != 4 {
		t.Fatalf("UNSPSC depth = %d, want exactly 4 levels", us.MaxDepth)
	}
	if unspsc.Len() < 15000 {
		t.Fatalf("UNSPSC codes = %d, want ≈20k", unspsc.Len())
	}
	if got := len(unspsc.Children(taxonomy.Root)); got != 55 {
		t.Fatalf("UNSPSC segments = %d, want 55", got)
	}

	dvd := GenerateTaxonomy(DVDTaxonomy(), rng)
	ds := dvd.ComputeStats()
	// §6: DVD taxonomy "contains more topics than its book counterpart,
	// though being less deep".
	if dvd.Len() <= book.Len() {
		t.Fatalf("DVD topics %d must exceed book topics %d", dvd.Len(), book.Len())
	}
	if ds.MaxDepth >= bs.MaxDepth {
		t.Fatalf("DVD depth %d must be shallower than book depth %d", ds.MaxDepth, bs.MaxDepth)
	}
}

func TestGenerateTaxonomyJitterAndCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := TaxonomyConfig{Depth: 5, Branching: 4, Jitter: 0.5, Root: "R", MaxTopics: 500}
	tax := GenerateTaxonomy(cfg, rng)
	if tax.Len() > 500 {
		t.Fatalf("MaxTopics violated: %d", tax.Len())
	}
	if tax.Len() < 100 {
		t.Fatalf("suspiciously small taxonomy: %d", tax.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallScale()
	c1, m1 := Generate(cfg)
	c2, m2 := Generate(cfg)
	if c1.ComputeStats() != c2.ComputeStats() {
		t.Fatalf("nondeterministic: %+v vs %+v", c1.ComputeStats(), c2.ComputeStats())
	}
	for id, k := range m1.AgentCluster {
		if m2.AgentCluster[id] != k {
			t.Fatalf("cluster assignment differs for %s", id)
		}
	}
	// Different seeds give different communities.
	cfg2 := cfg
	cfg2.Seed = 99
	c3, _ := Generate(cfg2)
	if c1.ComputeStats() == c3.ComputeStats() {
		t.Fatal("different seeds produced identical stats")
	}
}

func TestGenerateSmallScaleShape(t *testing.T) {
	cfg := SmallScale()
	comm, meta := Generate(cfg)
	st := comm.ComputeStats()
	if st.Agents != cfg.Agents {
		t.Fatalf("Agents = %d, want %d", st.Agents, cfg.Agents)
	}
	if st.Products != cfg.Products {
		t.Fatalf("Products = %d, want %d", st.Products, cfg.Products)
	}
	if st.Ratings == 0 || st.TrustEdges == 0 {
		t.Fatalf("degenerate community: %+v", st)
	}
	if st.MeanRatings < 1 || st.MeanRatings > float64(3*cfg.MeanRatings) {
		t.Fatalf("MeanRatings = %v, far from configured %d", st.MeanRatings, cfg.MeanRatings)
	}
	if st.DistrustEdges == 0 {
		t.Fatal("no distrust edges despite DistrustFraction > 0")
	}
	// Every product has at least one descriptor and a valid ISBN URN.
	for _, pid := range comm.Products() {
		p := comm.Product(pid)
		if len(p.Topics) == 0 {
			t.Fatalf("product %s has no descriptors", pid)
		}
		raw, ok := isbn.FromURN(string(p.ID))
		if !ok || !isbn.Valid(raw) {
			t.Fatalf("product %s lacks a valid ISBN URN", p.ID)
		}
		if k, ok := meta.ProductCluster[pid]; !ok || k < 0 || k >= cfg.Clusters {
			t.Fatalf("product %s has bad cluster %d", pid, k)
		}
	}
	// Every agent is clustered and publishable.
	for _, id := range comm.Agents() {
		if k, ok := meta.AgentCluster[id]; !ok || k < 0 || k >= cfg.Clusters {
			t.Fatalf("agent %s has bad cluster", id)
		}
	}
}

// TestFidelityShapesTrustGraph verifies the E2 control knob: high cluster
// fidelity concentrates trust edges within clusters.
func TestFidelityShapesTrustGraph(t *testing.T) {
	intraFraction := func(fid float64) float64 {
		cfg := SmallScale()
		cfg.ClusterFidelity = fid
		comm, meta := Generate(cfg)
		intra, total := 0, 0
		for _, e := range comm.TrustEdges() {
			if e.Value <= 0 {
				continue
			}
			total++
			if meta.AgentCluster[e.Src] == meta.AgentCluster[e.Dst] {
				intra++
			}
		}
		return float64(intra) / float64(total)
	}
	lo, hi := intraFraction(0.0), intraFraction(0.95)
	if hi <= lo+0.3 {
		t.Fatalf("fidelity had no effect: intra fraction %v (0.0) vs %v (0.95)", lo, hi)
	}
}

// TestPreferentialAttachmentSkew verifies the scale-free-ish in-degree:
// the most-trusted agent collects far more endorsements than the mean.
func TestPreferentialAttachmentSkew(t *testing.T) {
	cfg := SmallScale()
	cfg.ClusterFidelity = 0 // one global attachment market
	comm, _ := Generate(cfg)
	indeg := map[model.AgentID]int{}
	total := 0
	for _, e := range comm.TrustEdges() {
		if e.Value > 0 {
			indeg[e.Dst]++
			total++
		}
	}
	maxDeg := 0
	for _, d := range indeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(total) / float64(cfg.Agents)
	if float64(maxDeg) < 3*mean {
		t.Fatalf("in-degree not skewed: max %d vs mean %.2f", maxDeg, mean)
	}
}

func TestInjectSybils(t *testing.T) {
	cfg := SmallScale()
	comm, _ := Generate(cfg)
	victim := comm.Agents()[0]
	nVictimRatings := len(comm.Agent(victim).RatedProducts())
	if nVictimRatings == 0 {
		t.Skip("victim rated nothing")
	}
	push := model.ProductID("urn:isbn:attack")
	sybils := InjectSybils(comm, victim, 5, push)
	if len(sybils) != 5 {
		t.Fatalf("sybils = %d", len(sybils))
	}
	for _, s := range sybils {
		ag := comm.Agent(s)
		if ag == nil {
			t.Fatalf("sybil %s not materialized", s)
		}
		if v, ok := comm.Rating(s, push); !ok || v != 1 {
			t.Fatal("sybil does not push the product")
		}
		// Clone check: every victim rating replicated.
		for _, rs := range comm.RatingStatements(comm.Agent(victim)) {
			if v, _ := comm.Rating(s, rs.Product); v != rs.Value {
				t.Fatalf("sybil did not clone rating of %s", rs.Product)
			}
		}
	}
	// Ring trust among sybils, none from honest agents.
	if _, ok := comm.Trust(sybils[0], sybils[1]); !ok {
		t.Fatal("sybil ring missing")
	}
	for _, id := range comm.Agents() {
		if id == sybils[0] || id == sybils[1] || id == sybils[2] || id == sybils[3] || id == sybils[4] {
			continue
		}
		for _, s := range sybils {
			if _, ok := comm.Trust(id, s); ok {
				t.Fatalf("honest agent %s trusts a sybil", id)
			}
		}
	}
	// Degenerate inputs.
	if got := InjectSybils(comm, "nobody", 3, push); got != nil {
		t.Fatal("unknown victim must yield nil")
	}
	if got := InjectSybils(comm, victim, 0, push); got != nil {
		t.Fatal("zero count must yield nil")
	}
	if got := InjectSybils(comm, victim, 1, "urn:isbn:other"); len(got) != 1 {
		t.Fatal("single sybil must work (no ring)")
	}
}

func TestPopularitySkew(t *testing.T) {
	ratingCounts := func(skew float64) []int {
		cfg := SmallScale()
		cfg.PopularitySkew = skew
		cfg.ClusterFidelity = 0 // one global pool, cleanest signal
		comm, _ := Generate(cfg)
		counts := map[model.ProductID]int{}
		for _, id := range comm.Agents() {
			for _, e := range comm.Agent(id).RatedProducts() {
				counts[comm.Products()[e.Ord]]++
			}
		}
		out := make([]int, 0, len(counts))
		for _, n := range counts {
			out = append(out, n)
		}
		// Descending.
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if out[j] > out[i] {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	uniform := ratingCounts(0)
	skewed := ratingCounts(1.2)
	if len(uniform) == 0 || len(skewed) == 0 {
		t.Fatal("no ratings generated")
	}
	// The most popular product under skew dominates far more than under
	// uniform choice.
	if skewed[0] <= 2*uniform[0] {
		t.Fatalf("skew had no effect: top count %d (skewed) vs %d (uniform)",
			skewed[0], uniform[0])
	}
}

func TestZipfPickerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	z := newZipfPicker(1.0)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.pick(rng, 10)]++
	}
	// Rank 0 ≈ 2× rank 1 ≈ 10× rank 9, roughly.
	if counts[0] <= counts[1] || counts[1] <= counts[9] {
		t.Fatalf("Zipf ordering violated: %v", counts)
	}
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 5 {
		t.Fatalf("head/tail ratio = %v, want ≫ 1", ratio)
	}
	// s = 0 degenerates to uniform.
	u := newZipfPicker(0)
	if got := u.pick(rng, 1); got != 0 {
		t.Fatalf("pick(n=1) = %d", got)
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mean := range []int{1, 4, 12} {
		sum := 0
		const n = 5000
		for i := 0; i < n; i++ {
			g := geometric(rng, mean)
			if g < 1 {
				t.Fatalf("geometric returned %d", g)
			}
			sum += g
		}
		got := float64(sum) / n
		if mean == 1 {
			if got != 1 {
				t.Fatalf("mean-1 geometric = %v", got)
			}
			continue
		}
		if got < 0.6*float64(mean) || got > 1.4*float64(mean) {
			t.Fatalf("geometric mean = %v, want ≈%d", got, mean)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	comm, meta := Generate(Config{Seed: 5})
	if comm.NumAgents() == 0 || comm.NumProducts() == 0 {
		t.Fatal("zero config must still generate")
	}
	if meta.Config.BaseHost == "" || meta.Config.Clusters == 0 {
		t.Fatalf("defaults not applied: %+v", meta.Config)
	}
	if comm.Taxonomy() == nil {
		t.Fatal("default taxonomy missing")
	}
}

func TestTopicsSortedPerProduct(t *testing.T) {
	comm, _ := Generate(SmallScale())
	for _, pid := range comm.Products() {
		ts := comm.Product(pid).Topics
		for i := 1; i < len(ts); i++ {
			if ts[i-1] >= ts[i] {
				t.Fatalf("descriptors not sorted/unique for %s: %v", pid, ts)
			}
		}
		_ = taxonomy.Root
	}
}
