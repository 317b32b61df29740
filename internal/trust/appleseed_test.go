package trust

import (
	"math/rand"
	"testing"
	"testing/quick"

	"swrec/internal/model"
)

// lone compiles a community of one agent without statements.
func lone(id model.AgentID) *model.Adjacency {
	c := model.NewCommunity(nil)
	c.AddAgent(id)
	return c.Adjacency()
}

// build compiles a community from (src, dst, value) triples.
func build(t *testing.T, edges [][3]interface{}) *model.Adjacency {
	t.Helper()
	c := model.NewCommunity(nil)
	for _, e := range edges {
		if err := c.SetTrust(model.AgentID(e[0].(string)), model.AgentID(e[1].(string)), e[2].(float64)); err != nil {
			t.Fatal(err)
		}
	}
	return c.Adjacency()
}

// rankIn builds the rank of a fixture agent.
func rankIn(adj *model.Adjacency, id model.AgentID, trust float64) Rank {
	return NewRank(ordOf(adj, id), trust)
}

func TestAppleseedChain(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "b", 1.0},
		{"b", "c", 1.0},
	})
	nb, err := appleseedFrom(net, "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, okb := nb.RankOf("b")
	rc, okc := nb.RankOf("c")
	if !okb || !okc {
		t.Fatalf("chain members missing: %+v", nb.Ranks)
	}
	if rb <= rc {
		t.Fatalf("closer peer must outrank farther: b=%v c=%v", rb, rc)
	}
	if nb.Contains("a") {
		t.Fatal("source must not rank itself")
	}
	if nb.Iterations <= 0 || nb.Iterations >= 200 {
		t.Fatalf("iterations = %d, want converged before MaxIterations", nb.Iterations)
	}
}

func TestAppleseedWeightProportional(t *testing.T) {
	net := build(t, [][3]interface{}{
		{"a", "strong", 1.0},
		{"a", "weak", 0.25},
	})
	nb, err := appleseedFrom(net, "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := nb.RankOf("strong")
	rw, _ := nb.RankOf("weak")
	if rs <= rw {
		t.Fatalf("higher trust weight must yield higher rank: %v vs %v", rs, rw)
	}
	// Linear normalization: energy shares are 0.8 / 0.2, so first-pass
	// rank ratio is 4:1; backflow perturbs it only mildly.
	if ratio := rs / rw; ratio < 3 || ratio > 5 {
		t.Fatalf("rank ratio = %v, want ≈4", ratio)
	}
}

func TestAppleseedNonlinearNormalizationSharpens(t *testing.T) {
	edges := [][3]interface{}{
		{"a", "strong", 1.0},
		{"a", "weak", 0.5},
	}
	lin, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{NormExponent: 1})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{NormExponent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(nb *uriNeighborhood) float64 {
		s, _ := nb.RankOf("strong")
		w, _ := nb.RankOf("weak")
		return s / w
	}
	if ratio(sq) <= ratio(lin) {
		t.Fatalf("q=2 must favor the strong edge more: lin=%v sq=%v", ratio(lin), ratio(sq))
	}
}

func TestAppleseedMultiplePathsRankHigher(t *testing.T) {
	// d is trusted by both b and c; e only by b. Same depth, equal
	// weights — d must outrank e.
	net := build(t, [][3]interface{}{
		{"a", "b", 1.0},
		{"a", "c", 1.0},
		{"b", "d", 1.0},
		{"c", "d", 1.0},
		{"b", "e", 1.0},
	})
	nb, err := appleseedFrom(net, "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := nb.RankOf("d")
	re, _ := nb.RankOf("e")
	if rd <= re {
		t.Fatalf("peer trusted via two paths must outrank single-path peer: d=%v e=%v", rd, re)
	}
}

func TestAppleseedDistrustDoesNotPropagate(t *testing.T) {
	// a distrusts b; b trusts c. Neither b nor c may receive rank.
	net := build(t, [][3]interface{}{
		{"a", "b", -1.0},
		{"b", "c", 1.0},
		{"a", "d", 0.5},
	})
	nb, err := appleseedFrom(net, "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Contains("b") || nb.Contains("c") {
		t.Fatalf("distrusted subtree leaked into neighborhood: %+v", nb.Ranks)
	}
	if !nb.Contains("d") {
		t.Fatal("trusted peer missing")
	}
}

func TestAppleseedRespectDistrust(t *testing.T) {
	// c is reachable via b but directly distrusted by the source.
	edges := [][3]interface{}{
		{"a", "b", 1.0},
		{"b", "c", 1.0},
		{"a", "c", -0.5},
	}
	without, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !without.Contains("c") {
		t.Fatal("without RespectDistrust, c should be ranked via b")
	}
	with, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{RespectDistrust: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Contains("c") {
		t.Fatal("RespectDistrust must drop directly distrusted peers")
	}
}

func TestAppleseedDistrustPenalty(t *testing.T) {
	// c is positively reached via b, but the source distrusts it with
	// full strength: γ=1 zeroes it, γ=0.5 halves it, γ=0 leaves it.
	edges := [][3]interface{}{
		{"a", "b", 1.0},
		{"b", "c", 1.0},
		{"b", "d", 1.0},
		{"a", "c", -1.0},
	}
	base, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc0, _ := base.RankOf("c")
	rd0, _ := base.RankOf("d")
	if rc0 != rd0 {
		t.Fatalf("symmetric peers should tie without penalty: %v vs %v", rc0, rd0)
	}

	half, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{DistrustPenalty: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rcHalf, _ := half.RankOf("c")
	if math := rcHalf / rc0; math < 0.49 || math > 0.51 {
		t.Fatalf("γ=0.5 should halve the rank, got factor %v", math)
	}

	full, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{DistrustPenalty: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Contains("c") {
		t.Fatal("γ=1 full-strength source distrust must remove the peer")
	}
	if rd, _ := full.RankOf("d"); rd != rd0 {
		t.Fatalf("unrelated peer's rank changed: %v vs %v", rd, rd0)
	}
}

func TestAppleseedDistrustPenaltyWeighedByDistruster(t *testing.T) {
	// Two distrusters of w: high-ranked b and low-ranked e. Demotion by b
	// must exceed demotion by e, since distrust carries the distruster's
	// standing.
	common := [][3]interface{}{
		{"a", "b", 1.0},
		{"a", "e", 0.1},
		{"a", "w", 1.0},
	}
	byStrong := append(append([][3]interface{}{}, common...),
		[3]interface{}{"b", "w", -1.0})
	byWeak := append(append([][3]interface{}{}, common...),
		[3]interface{}{"e", "w", -1.0})

	strong, err := appleseedFrom(build(t, byStrong), "a", AppleseedOptions{DistrustPenalty: 1})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := appleseedFrom(build(t, byWeak), "a", AppleseedOptions{DistrustPenalty: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := strong.RankOf("w")
	rw, _ := weak.RankOf("w")
	if rs >= rw {
		t.Fatalf("high-ranked distruster must demote more: %v (strong) vs %v (weak)", rs, rw)
	}
}

func TestAppleseedDistrustPenaltyValidation(t *testing.T) {
	net := build(t, [][3]interface{}{{"a", "b", 1.0}})
	if _, err := appleseedFrom(net, "a", AppleseedOptions{DistrustPenalty: 1.5}); err == nil {
		t.Fatal("penalty > 1 accepted")
	}
	if _, err := appleseedFrom(net, "a", AppleseedOptions{DistrustPenalty: -0.1}); err == nil {
		t.Fatal("negative penalty accepted")
	}
}

func TestAppleseedMaxNodesBoundsExploration(t *testing.T) {
	// Star with 50 spokes plus a deep chain.
	edges := [][3]interface{}{}
	for i := 0; i < 50; i++ {
		edges = append(edges, [3]interface{}{"a", "s" + itoa(i), 1.0})
	}
	net := build(t, edges)
	nb, err := appleseedFrom(net, "a", AppleseedOptions{MaxNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Ranks) > 10 {
		t.Fatalf("MaxNodes=10 but %d peers ranked", len(nb.Ranks))
	}
}

func TestAppleseedDeterministic(t *testing.T) {
	edges := [][3]interface{}{
		{"a", "b", 0.9}, {"a", "c", 0.7}, {"b", "d", 0.8},
		{"c", "d", 0.6}, {"d", "e", 1.0}, {"e", "a", 0.5},
	}
	n1, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(n1.Ranks) != len(n2.Ranks) {
		t.Fatal("nondeterministic rank count")
	}
	for i := range n1.Ranks {
		if n1.Ranks[i] != n2.Ranks[i] {
			t.Fatalf("nondeterministic ranks at %d: %+v vs %+v", i, n1.Ranks[i], n2.Ranks[i])
		}
	}
}

func TestAppleseedBackpropKeepsEnergyInNetwork(t *testing.T) {
	// b is a dead end. With backprop, energy returns to a and is re-spread
	// toward c as well; without it, the energy b receives dissipates.
	edges := [][3]interface{}{
		{"a", "b", 1.0},
		{"a", "c", 1.0},
		{"c", "d", 1.0},
	}
	withBP, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noBP, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{NoBackprop: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(nb *uriNeighborhood) float64 {
		var s float64
		for _, r := range nb.Ranks {
			s += r.Trust
		}
		return s
	}
	if sum(withBP) <= sum(noBP) {
		t.Fatalf("backprop should retain more energy as rank: with=%v without=%v",
			sum(withBP), sum(noBP))
	}
}

// A source without statements ranks nobody. (A source the community does
// not know has no ordinal; core answers it with the empty neighborhood.)
func TestAppleseedEmptyAndUnknownSource(t *testing.T) {
	nb, err := appleseedFrom(lone("ghost"), "ghost", AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Ranks) != 0 {
		t.Fatalf("a source without statements must yield an empty neighborhood, got %+v", nb.Ranks)
	}
}

func TestAppleseedOptionValidation(t *testing.T) {
	net := lone("a")
	bad := []AppleseedOptions{
		{Injection: -1},
		{SpreadingFactor: 1.5},
		{Threshold: -0.1},
		{NormExponent: -2},
		{MaxNodes: -1},
	}
	for i, o := range bad {
		if _, err := appleseedFrom(net, "a", o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

// Property: total accumulated rank never exceeds the injected energy, and
// all ranks are positive (energy conservation of spreading activation).
func TestAppleseedEnergyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := model.NewCommunity(nil)
		n := 12
		ids := make([]model.AgentID, n)
		for i := range ids {
			ids[i] = model.AgentID("a" + itoa(i))
			c.AddAgent(ids[i]) // the draw below may leave an agent without statements
		}
		for i := 0; i < 3*n; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d {
				continue
			}
			_ = c.SetTrust(ids[s], ids[d], rng.Float64())
		}
		const inj = 200.0
		nb, err := appleseedFrom(FromCommunity(c), ids[0], AppleseedOptions{Injection: inj})
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range nb.Ranks {
			if r.Trust <= 0 {
				return false
			}
			sum += r.Trust
		}
		return sum <= inj+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: shrinking the convergence threshold only adds rank mass (more
// iterations accumulate more), and ordering of clearly separated peers is
// stable.
func TestAppleseedThresholdMonotone(t *testing.T) {
	edges := [][3]interface{}{
		{"a", "b", 1.0}, {"b", "c", 0.8}, {"c", "d", 0.6}, {"a", "d", 0.3},
	}
	coarse, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := appleseedFrom(build(t, edges), "a", AppleseedOptions{Threshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(nb *uriNeighborhood) float64 {
		var s float64
		for _, r := range nb.Ranks {
			s += r.Trust
		}
		return s
	}
	if sum(fine) < sum(coarse) {
		t.Fatalf("finer threshold lost rank mass: %v < %v", sum(fine), sum(coarse))
	}
	if fine.Iterations < coarse.Iterations {
		t.Fatalf("finer threshold took fewer iterations: %d < %d", fine.Iterations, coarse.Iterations)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
