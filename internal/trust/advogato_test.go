package trust

import "testing"

func TestAdvogatoAcceptsDirectPeers(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 1.0},
		{"a", "c", 0.8},
	})
	nb, err := advogatoFrom(net, "a", AdvogatoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Contains("b") || !nb.Contains("c") {
		t.Fatalf("direct peers not accepted: %+v", nb.Ranks)
	}
	for _, r := range nb.Ranks {
		if r.Trust != 1 {
			t.Fatalf("Advogato must be boolean, got rank %v", r.Trust)
		}
	}
	if nb.Contains("a") {
		t.Fatal("source must not certify itself in the result")
	}
}

func TestAdvogatoCapacityLimitsAcceptance(t *testing.T) {
	// Source capacity 3: one unit goes to its own sink edge, two units
	// can flow onward — at most 2 of the 5 direct peers are accepted.
	edges := [][3]interface{}{}
	for i := 0; i < 5; i++ {
		edges = append(edges, [3]interface{}{"a", "p" + itoa(i), 1.0})
	}
	nb, err := advogatoFrom(build(t, edges), "a", AdvogatoOptions{CapacityProfile: []int{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nb.Ranks); got != 2 {
		t.Fatalf("accepted %d peers, want 2 (capacity bound)", got)
	}
}

func TestAdvogatoHorizonBound(t *testing.T) {
	// Chain a→b→c→d with a 2-level profile: d sits beyond the horizon.
	net := build(t, [][3]interface{}{
		{"a", "b", 1.0},
		{"b", "c", 1.0},
		{"c", "d", 1.0},
	})
	nb, err := advogatoFrom(net, "a", AdvogatoOptions{CapacityProfile: []int{8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Contains("b") || !nb.Contains("c") {
		t.Fatalf("in-horizon peers missing: %+v", nb.Ranks)
	}
	if nb.Contains("d") {
		t.Fatal("peer beyond capacity profile must not be accepted")
	}
}

func TestAdvogatoDistrustIgnored(t *testing.T) {
	// Mild distrust (-0.3) sits above a threshold of -0.5: a negative
	// MinWeight would turn it into a certification edge, so it is refused.
	for _, distrust := range []float64{-1.0, -0.3} {
		net := build(t, [][3]interface{}{
			{"a", "b", distrust},
			{"b", "c", 1.0},
		})
		nb, err := advogatoFrom(net, "a", AdvogatoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(nb.Ranks) != 0 {
			t.Fatalf("distrust %v must not certify: %+v", distrust, nb.Ranks)
		}
		if nb, err := advogatoFrom(net, "a", AdvogatoOptions{MinWeight: -0.5}); err == nil {
			t.Fatalf("distrust %v under a negative threshold: accepted %+v, want an error", distrust, nb.Ranks)
		}
	}
}

func TestAdvogatoSybilResistance(t *testing.T) {
	// One compromised mid-trust agent m certifies 20 sybils. m's level
	// capacity (3) bounds the accepted sybils to at most 2 — Advogato's
	// signature attack resistance.
	edges := [][3]interface{}{{"a", "m", 1.0}}
	for i := 0; i < 20; i++ {
		edges = append(edges, [3]interface{}{"m", "sybil" + itoa(i), 1.0})
	}
	nb, err := advogatoFrom(build(t, edges), "a", AdvogatoOptions{CapacityProfile: []int{100, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, r := range nb.Ranks {
		if r.Agent != "m" {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("%d sybils accepted, capacity bound allows at most 2", accepted)
	}
	if !nb.Contains("m") {
		t.Fatal("the certified mid agent itself should be accepted")
	}
}

func TestAdvogatoMinWeightThreshold(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "strong", 0.9},
		{"a", "weak", 0.2},
	})
	nb, err := advogatoFrom(net, "a", AdvogatoOptions{MinWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Contains("strong") || nb.Contains("weak") {
		t.Fatalf("MinWeight thresholding broken: %+v", nb.Ranks)
	}
}

func TestAdvogatoValidation(t *testing.T) {
	net := lone("a")
	for _, bad := range []AdvogatoOptions{
		{CapacityProfile: []int{0}},
		{MinWeight: -0.5}, // distrust would certify
		{MinWeight: 1},    // nothing could
	} {
		if _, err := advogatoFrom(net, "a", bad); err == nil {
			t.Errorf("options accepted: %+v", bad)
		}
	}
}

func TestAdvogatoEmptySource(t *testing.T) {
	nb, err := advogatoFrom(lone("ghost"), "ghost", AdvogatoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Ranks) != 0 {
		t.Fatal("a source without statements must yield an empty neighborhood")
	}
}

func TestPathTrustBestChain(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 0.5},
		{"b", "c", 0.5},
		{"a", "c", 0.3},
	})
	nb, err := pathTrustFrom(net, "a", PathTrustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := nb.RankOf("c")
	if !ok || rc != 0.3 {
		t.Fatalf("best chain to c = %v, want 0.3 (direct beats 0.25 chain)", rc)
	}
	rb, _ := nb.RankOf("b")
	if rb != 0.5 {
		t.Fatalf("rank(b) = %v, want 0.5", rb)
	}
}

func TestPathTrustChainBeatsWeakDirect(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 0.9},
		{"b", "c", 0.9},
		{"a", "c", 0.1},
	})
	nb, err := pathTrustFrom(net, "a", PathTrustOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := nb.RankOf("c")
	if rc < 0.80 || rc > 0.82 {
		t.Fatalf("rank(c) = %v, want 0.81 via the strong chain", rc)
	}
}

func TestPathTrustHorizon(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 1.0},
		{"b", "c", 1.0},
		{"c", "d", 1.0},
	})
	nb, err := pathTrustFrom(net, "a", PathTrustOptions{Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !nb.Contains("c") || nb.Contains("d") {
		t.Fatalf("horizon 2 should reach c but not d: %+v", nb.Ranks)
	}
}

func TestPathTrustMinTrustPrunes(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 0.1},
		{"b", "c", 0.1},
	})
	nb, err := pathTrustFrom(net, "a", PathTrustOptions{MinTrust: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Contains("c") {
		t.Fatal("path of strength 0.01 must be pruned at MinTrust 0.05")
	}
}

func TestPathTrustValidation(t *testing.T) {
	net := lone("a")
	if _, err := pathTrustFrom(net, "a", PathTrustOptions{Horizon: -1}); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := pathTrustFrom(net, "a", PathTrustOptions{MinTrust: 2}); err == nil {
		t.Fatal("MinTrust >= 1 accepted")
	}
}

func TestNeighborhoodHelpers(t *testing.T) {
	net := build(t, [][3]interface{}{{"a", "b", 1.0}, {"a", "c", 1.0}, {"a", "d", 1.0}})
	nb := &Neighborhood{
		Source: ordOf(net, "a"),
		Ranks:  []Rank{rankIn(net, "b", 3), rankIn(net, "c", 2), rankIn(net, "d", 1)},
	}
	if got := nb.Top(2); len(got) != 2 || got[0] != rankIn(net, "b", 3) {
		t.Fatalf("Top(2) = %+v", got)
	}
	if got := nb.Top(0); len(got) != 3 {
		t.Fatalf("Top(0) = %+v, want all", got)
	}
	uri := nameIn(net, nb)
	if uri.Source != "a" || !uri.Contains("c") || uri.Contains("a") {
		t.Fatalf("named: want source a, member c, non-member a; got %+v", uri)
	}
	if _, ok := uri.RankOf("zz"); ok {
		t.Fatal("RankOf invented a peer")
	}
}
