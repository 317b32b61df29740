package trust

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

// walkVariants are the option sets the compiled walk must serve itself —
// none of them may fall back to another implementation. "default" is the
// bounded range the zero value resolves to (it binds at 1,500 agents);
// "wholerange" states a range no community reaches.
var walkVariants = []struct {
	name string
	opt  AppleseedOptions
}{
	{"default", AppleseedOptions{}},
	{"wholerange", AppleseedOptions{MaxNodes: 1 << 30}},
	{"maxnodes37", AppleseedOptions{MaxNodes: 37}},
	{"maxnodes200", AppleseedOptions{MaxNodes: 200}},
	{"nobackprop", AppleseedOptions{NoBackprop: true}},
	{"spreading0.6", AppleseedOptions{SpreadingFactor: 0.6}},
	{"normexp2", AppleseedOptions{NormExponent: 2}},
	{"penalty0.5", AppleseedOptions{DistrustPenalty: 0.5}},
	{"respectdistrust", AppleseedOptions{RespectDistrust: true}},
	{"everything", AppleseedOptions{MaxNodes: 200, NormExponent: 2, DistrustPenalty: 0.5, RespectDistrust: true, Threshold: 0.01}},
}

// sameNeighborhood requires the compiled walk's answer to equal the
// generic URI walk's bit for bit: same peers in the same order, ranks
// equal under ==, same pass and fetch counts.
func sameNeighborhood(t *testing.T, label string, got, want *Neighborhood) {
	t.Helper()
	if got.Source != want.Source || got.Iterations != want.Iterations || got.Explored != want.Explored {
		t.Fatalf("%s: source/iterations/explored %s/%d/%d, generic walk %s/%d/%d", label,
			got.Source, got.Iterations, got.Explored, want.Source, want.Iterations, want.Explored)
	}
	if len(got.Ranks) != len(want.Ranks) {
		t.Fatalf("%s: %d ranks, generic walk %d", label, len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		if got.Ranks[i].Agent != want.Ranks[i].Agent || got.Ranks[i].Trust != want.Ranks[i].Trust {
			t.Fatalf("%s: rank %d is %s %v, generic walk %s %v", label, i,
				got.Ranks[i].Agent, got.Ranks[i].Trust, want.Ranks[i].Agent, want.Ranks[i].Trust)
		}
	}
}

// diffCommunity checks every variant from the given sources on c. The
// runs share the pooled walk state back to back, so a variant that left
// anything behind would corrupt the next one.
func diffCommunity(t *testing.T, c *model.Community, sources []model.AgentID) {
	t.Helper()
	compiled, generic := FromCommunity(c), plainNet{c}
	for _, v := range walkVariants {
		for _, src := range sources {
			got, err := Appleseed(compiled, src, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Appleseed(generic, src, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			sameNeighborhood(t, fmt.Sprintf("%s from %s", v.name, src), got, want)
			for _, r := range got.Ranks {
				if ord, ok := r.Ord(); !ok || c.Symbols().AgentAt(ord).ID != r.Agent {
					t.Fatalf("%s from %s: rank of %s carries ordinal %d (ok=%v)", v.name, src, r.Agent, ord, ok)
				}
			}
		}
	}
}

// TestCompiledWalkMatchesGenericWalk is the compiled walk's differential
// gate at community scale: 1,500 agents of the paper-shaped generator,
// which includes distrust statements.
func TestCompiledWalkMatchesGenericWalk(t *testing.T) {
	cfg := datagen.PaperScale()
	cfg.Agents = 1500
	c, _ := datagen.Generate(cfg)
	ids := c.Agents()
	diffCommunity(t, c, []model.AgentID{ids[0], ids[1], ids[417], ids[1499]})
}

// TestCompiledWalkMatchesGenericWalkOnFixtures covers the shapes the
// generator does not produce: explicit edges back to the source, dead
// ends, a distruster that is itself distrusted, zero-valued statements,
// and an unknown source.
func TestCompiledWalkMatchesGenericWalkOnFixtures(t *testing.T) {
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
	diffCommunity(t, c, []model.AgentID{"a", "b", "e", "z", "nobody"})
}

// TestCompiledWalkLeavesPooledStateClean cancels a walk halfway and
// requires the next one, on the same pooled state, to be unaffected.
func TestCompiledWalkLeavesPooledStateClean(t *testing.T) {
	cfg := datagen.PaperScale()
	cfg.Agents = 600
	c, _ := datagen.Generate(cfg)
	net, src := FromCommunity(c), c.Agents()[0]
	want, err := Appleseed(plainNet{c}, src, AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), calls: 3}
	if _, err := AppleseedCtx(ctx, net, c.Agents()[5], AppleseedOptions{}); err != context.Canceled {
		t.Fatalf("cancelled walk returned %v", err)
	}
	got, err := Appleseed(net, src, AppleseedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborhood(t, "after a cancelled walk", got, want)
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
// than the generic walk's and round differently.
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
		for _, st := range c.Agent(queue[0]).TrustedPeers() {
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
	if _, err := w.spread(context.Background(), adj.Trust(), src.Ord(), opt.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	inOrder := slices.IsSorted(w.fetchSeq[:w.nFetched])
	w.release()
	if inOrder {
		t.Fatal("fixture: every node was fetched in node order — nothing to rebuild")
	}

	got, err := Appleseed(FromCommunity(c), src.ID, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Appleseed(plainNet{c}, src.ID, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighborhood(t, "out-of-order fetch", got, want)
}
