package trust

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

// ordOf resolves a fixture agent to its ordinal.
func ordOf(adj *model.Adjacency, id model.AgentID) int32 {
	a := adj.Community().Agent(id)
	if a == nil {
		panic("fixture: no agent " + string(id))
	}
	return a.Ord()
}

// appleseedFrom, advogatoFrom and pathTrustFrom run a metric from a
// source named by URI, for fixtures written in agent names.
func appleseedFrom(adj *model.Adjacency, src model.AgentID, opt AppleseedOptions) (*Neighborhood, error) {
	return Appleseed(context.Background(), adj, ordOf(adj, src), opt, nil)
}

func advogatoFrom(adj *model.Adjacency, src model.AgentID, opt AdvogatoOptions) (*Neighborhood, error) {
	return Advogato(adj, ordOf(adj, src), opt)
}

func pathTrustFrom(adj *model.Adjacency, src model.AgentID, opt PathTrustOptions) (*Neighborhood, error) {
	return PathTrust(adj, ordOf(adj, src), opt)
}

// variant is one option set of one metric: the production walk over the
// adjacency beside the oracle walk over the same community by URI.
type variant struct {
	name   string
	walk   func(adj *model.Adjacency, src int32) (*Neighborhood, error)
	oracle func(net Network, src model.AgentID) (*Neighborhood, error)
}

func appleseedVariant(name string, opt AppleseedOptions) variant {
	return variant{name,
		func(adj *model.Adjacency, src int32) (*Neighborhood, error) {
			return Appleseed(context.Background(), adj, src, opt, nil)
		},
		func(net Network, src model.AgentID) (*Neighborhood, error) {
			return oracleAppleseed(context.Background(), net, src, opt)
		}}
}

func advogatoVariant(name string, opt AdvogatoOptions) variant {
	return variant{name,
		func(adj *model.Adjacency, src int32) (*Neighborhood, error) { return Advogato(adj, src, opt) },
		func(net Network, src model.AgentID) (*Neighborhood, error) { return oracleAdvogato(net, src, opt) }}
}

func pathTrustVariant(name string, opt PathTrustOptions) variant {
	return variant{name,
		func(adj *model.Adjacency, src int32) (*Neighborhood, error) { return PathTrust(adj, src, opt) },
		func(net Network, src model.AgentID) (*Neighborhood, error) { return oraclePathTrust(net, src, opt) }}
}

// walkVariants are the option sets the Appleseed walk must serve.
// "default" is the bounded range the zero value resolves to (it binds at
// 1,500 agents); "wholerange" states a range no community reaches.
var walkVariants = []variant{
	appleseedVariant("default", AppleseedOptions{}),
	appleseedVariant("wholerange", AppleseedOptions{MaxNodes: 1 << 30}),
	appleseedVariant("maxnodes37", AppleseedOptions{MaxNodes: 37}),
	appleseedVariant("maxnodes200", AppleseedOptions{MaxNodes: 200}),
	appleseedVariant("nobackprop", AppleseedOptions{NoBackprop: true}),
	appleseedVariant("spreading0.6", AppleseedOptions{SpreadingFactor: 0.6}),
	appleseedVariant("normexp2", AppleseedOptions{NormExponent: 2}),
	appleseedVariant("penalty0.5", AppleseedOptions{DistrustPenalty: 0.5}),
	appleseedVariant("respectdistrust", AppleseedOptions{RespectDistrust: true}),
	appleseedVariant("everything", AppleseedOptions{MaxNodes: 200, NormExponent: 2, DistrustPenalty: 0.5, RespectDistrust: true, Threshold: 0.01}),
}

// advogatoVariants: a profile that binds within two hops, the published
// one, and a certification threshold on each.
var advogatoVariants = []variant{
	advogatoVariant("default", AdvogatoOptions{}),
	advogatoVariant("profile3-2-1", AdvogatoOptions{CapacityProfile: []int{3, 2, 1}}),
	advogatoVariant("profile200", AdvogatoOptions{CapacityProfile: []int{200, 50, 12, 4, 2, 1}}),
	advogatoVariant("minweight0.5", AdvogatoOptions{MinWeight: 0.5}),
	advogatoVariant("profile3-2-1/minweight0.5", AdvogatoOptions{CapacityProfile: []int{3, 2, 1}, MinWeight: 0.5}),
}

var pathTrustVariants = func() (vs []variant) {
	for _, h := range []int{1, 4, 8} {
		for _, m := range []float64{0, 0.01, 0.3} {
			vs = append(vs, pathTrustVariant(fmt.Sprintf("horizon%d/mintrust%v", h, m), PathTrustOptions{Horizon: h, MinTrust: m}))
		}
	}
	return vs
}()

// sameNeighborhood requires a production walk's answer to equal the
// oracle's bit for bit: same peers in the same order, ranks equal under
// ==, same pass and fetch counts.
func sameNeighborhood(t *testing.T, label string, got, want *Neighborhood) {
	t.Helper()
	if got.Source != want.Source || got.Iterations != want.Iterations || got.Explored != want.Explored {
		t.Fatalf("%s: source/iterations/explored %s/%d/%d, oracle %s/%d/%d", label,
			got.Source, got.Iterations, got.Explored, want.Source, want.Iterations, want.Explored)
	}
	if len(got.Ranks) != len(want.Ranks) {
		t.Fatalf("%s: %d ranks, oracle %d", label, len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		if got.Ranks[i].Agent != want.Ranks[i].Agent || got.Ranks[i].Trust != want.Ranks[i].Trust {
			t.Fatalf("%s: rank %d is %s %v, oracle %s %v", label, i,
				got.Ranks[i].Agent, got.Ranks[i].Trust, want.Ranks[i].Agent, want.Ranks[i].Trust)
		}
	}
}

// diffCommunity checks every variant from the given sources on c. The
// runs share the metric's pooled state back to back, so a variant that
// left anything behind would corrupt the next one.
func diffCommunity(t *testing.T, c *model.Community, sources []model.AgentID, variants []variant) {
	t.Helper()
	adj, oracle := c.Adjacency(), plainNet{c}
	for _, v := range variants {
		for _, src := range sources {
			got, err := v.walk(adj, ordOf(adj, src))
			if err != nil {
				t.Fatal(err)
			}
			want, err := v.oracle(oracle, src)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighborhood(t, fmt.Sprintf("%s from %s", v.name, src), got, want)
			for _, r := range got.Ranks {
				if a := c.Symbols().AgentAt(r.Ord()); a == nil || a.ID != r.Agent {
					t.Fatalf("%s from %s: rank of %s carries ordinal %d", v.name, src, r.Agent, r.Ord())
				}
			}
		}
	}
}

// diffScale checks the variants at community scale: 1,500 agents of the
// paper-shaped generator, which includes distrust statements.
func diffScale(t *testing.T, variants []variant) {
	t.Helper()
	c := paperShaped1500()
	ids := c.Agents()
	diffCommunity(t, c, []model.AgentID{ids[0], ids[1], ids[417], ids[1499]}, variants)
}

var paperShaped1500 = sync.OnceValue(func() *model.Community {
	cfg := datagen.PaperScale()
	cfg.Agents = 1500
	c, _ := datagen.Generate(cfg)
	return c
})

// diffFixtures checks the variants on the shapes the generator does not
// produce: explicit edges back to the source, dead ends, a distruster
// that is itself distrusted, zero-valued statements, and a source with no
// statements. (An unknown source has no ordinal; core answers it.)
func diffFixtures(t *testing.T, variants []variant) {
	t.Helper()
	c := model.NewCommunity(nil)
	for _, e := range []struct {
		src, dst model.AgentID
		v        float64
	}{
		{"a", "b", 0.9}, {"a", "c", 0.7}, {"a", "x", -0.8}, {"a", "z", 0},
		{"b", "d", 0.8}, {"b", "a", 0.5}, {"b", "x", 0.6}, {"b", "c", -0.4},
		{"c", "d", 0.6}, {"c", "x", 0.9}, {"c", "b", -1},
		{"d", "e", 1.0}, {"d", "c", -0.3},
		{"x", "e", 0.2}, {"x", "a", 1.0},
	} {
		if err := c.SetTrust(e.src, e.dst, e.v); err != nil {
			t.Fatal(err)
		}
	}
	diffCommunity(t, c, []model.AgentID{"a", "b", "e", "z"}, variants)
}

// TestCompiledWalkMatchesGenericWalk is the Appleseed walk's differential
// gate at community scale.
func TestCompiledWalkMatchesGenericWalk(t *testing.T) { diffScale(t, walkVariants) }

func TestCompiledWalkMatchesGenericWalkOnFixtures(t *testing.T) { diffFixtures(t, walkVariants) }

// TestAdvogatoMatchesGenericWalk pins the accepted set — which max-flow
// does not make unique — to the oracle's, peer for peer.
func TestAdvogatoMatchesGenericWalk(t *testing.T) {
	diffScale(t, advogatoVariants)
	diffFixtures(t, advogatoVariants)
}

func TestPathTrustMatchesGenericWalk(t *testing.T) {
	diffScale(t, pathTrustVariants)
	diffFixtures(t, pathTrustVariants)
}

// TestWalkAllocations holds each metric to its ceiling once its pool is
// warm: the result and its ranks, plus slack for a pool refill.
func TestWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := paperShaped1500()
	adj, ids := c.Adjacency(), c.Agents()
	for _, m := range []struct {
		variant
		ceiling float64
	}{
		{walkVariants[0], 2},
		{advogatoVariants[0], 4},
		{pathTrustVariants[4], 4}, // horizon 4, min trust 0.01: the defaults
	} {
		next := 0
		run := func() {
			if _, err := m.walk(adj, ordOf(adj, ids[next%len(ids)])); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 50; i++ {
			run() // grow the pooled arrays to what these sources need
		}
		next = 0
		if got := testing.AllocsPerRun(50, run); got > m.ceiling {
			t.Errorf("%s: %v allocations per call, ceiling %v", m.name, got, m.ceiling)
		}
	}
}

// TestCompiledWalkLeavesPooledStateClean cancels a walk halfway and
// requires the next one, on the same pooled state, to be unaffected; and
// requires what Advogato and PathTrust hand back to their pools to be
// zero wherever the next computation reads before it writes.
func TestCompiledWalkLeavesPooledStateClean(t *testing.T) {
	cfg := datagen.PaperScale()
	cfg.Agents = 600
	c, _ := datagen.Generate(cfg)
	adj, src := c.Adjacency(), c.Agents()[0]
	want, err := oracleAppleseed(context.Background(), plainNet{c}, src, AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), calls: 3}
	if _, err := Appleseed(ctx, adj, ordOf(adj, c.Agents()[5]), AppleseedOptions{}, nil); err != context.Canceled {
		t.Fatalf("cancelled walk returned %v", err)
	}
	got, err := appleseedFrom(adj, src, AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborhood(t, "after a cancelled walk", got, want)

	clean := func(name string, tab *nodeTable) {
		t.Helper()
		if len(tab.ord) != 0 || slices.IndexFunc(tab.at, func(n int32) bool { return n != 0 }) >= 0 {
			t.Fatalf("%s: pooled node table holds %d nodes and a marked agent", name, len(tab.ord))
		}
	}
	// A pool may drop what it is handed (it does at random under the race
	// detector), so ask until the state of a finished computation comes back.
	for tries, seen := 0, 0; seen < 2; tries++ {
		if tries == 20 {
			t.Fatal("the pools never returned a used state")
		}
		seen = 0
		if _, err := advogatoFrom(adj, src, AdvogatoOptions{}); err != nil {
			t.Fatal(err)
		}
		if s, ok := certificationPool.Get().(*certification); ok {
			clean("Advogato", &s.nodeTable)
			seen++
		}
		if _, err := pathTrustFrom(adj, src, PathTrustOptions{}); err != nil {
			t.Fatal(err)
		}
		if s, ok := chainSearchPool.Get().(*chainSearch); ok {
			clean("PathTrust", &s.nodeTable)
			if len(s.heap) != 0 {
				t.Fatalf("PathTrust: pooled heap holds %d chains", len(s.heap))
			}
			seen++
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

// TestCompiledWalkOutOfOrderFetch drives the walk through the one case
// where nodes are not fetched in node order: with denormal-scale energy a
// weakly trusted peer is discovered a pass before any energy survives the
// trip to it (the product underflows to zero), so nodes discovered later
// spread first. The edge arena must be put back in node order, or the
// sums reaching the late nodes' targets would accumulate in another order
// than the oracle's and round differently.
func TestCompiledWalkOutOfOrderFetch(t *testing.T) {
	cfg := datagen.PaperScale()
	cfg.Agents = 600
	c, _ := datagen.Generate(cfg)
	src := c.Agent(c.Agents()[0])
	// The source states 1e-30 trust in agents three or more hops away:
	// they become low-numbered nodes in pass 0 and receive nothing until
	// real energy has walked the long way round.
	depth := map[model.AgentID]int{src.ID: 0}
	for queue := []model.AgentID{src.ID}; len(queue) > 0; queue = queue[1:] {
		for _, st := range c.TrustStatements(c.Agent(queue[0])) {
			if _, seen := depth[st.Dst]; !seen && st.Value > 0 {
				depth[st.Dst] = depth[queue[0]] + 1
				queue = append(queue, st.Dst)
			}
		}
	}
	far := 0
	for _, id := range c.Agents() {
		if depth[id] >= 3 && far < 12 {
			if err := c.SetTrust(src.ID, id, 1e-30); err != nil {
				t.Fatal(err)
			}
			far++
		}
	}
	if far < 12 {
		t.Fatalf("fixture: only %d agents three hops from the source", far)
	}
	opt := AppleseedOptions{Injection: 1e-300, Threshold: 1e-320, MaxIterations: 25}

	adj := c.Adjacency()
	w := getWalk(adj.NumAgents(), adj.NumAgents())
	if _, err := w.spread(context.Background(), adj, src.Ord(), opt.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	inOrder := slices.IsSorted(w.fetchSeq[:w.nFetched])
	w.release()
	if inOrder {
		t.Fatal("fixture: every node was fetched in node order — nothing to rebuild")
	}

	got, err := appleseedFrom(adj, src.ID, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleAppleseed(context.Background(), plainNet{c}, src.ID, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborhood(t, "out-of-order fetch", got, want)
}
