package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// warmAll fills the snapshot's result (and thereby peers/profile) caches
// for every agent, plus the catalog index and the agent directory.
func warmAll(t *testing.T, snap *Snapshot, n int) {
	t.Helper()
	for _, id := range snap.Community().Agents() {
		if _, err := snap.Recommend(id, n, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	snap.TopicIndex()
	snap.AgentsByTrustOut()
}

// sameRecs compares two recommendation lists as score maps with an FP
// tolerance, the established idiom for cross-pipeline-instance equality.
func sameRecs(t *testing.T, id model.AgentID, got, want []core.Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("agent %s: %d recs, want %d", id, len(got), len(want))
	}
	wantScore := make(map[string]core.Recommendation, len(want))
	for _, rc := range want {
		wantScore[string(rc.Product)] = rc
	}
	for _, rc := range got {
		w, ok := wantScore[string(rc.Product)]
		if !ok {
			t.Fatalf("agent %s: unexpected product %s", id, rc.Product)
		}
		if rc.Supporters != w.Supporters || rc.Score-w.Score > 1e-9 || w.Score-rc.Score > 1e-9 {
			t.Fatalf("agent %s product %s: %+v != %+v", id, rc.Product, rc, w)
		}
	}
}

// clusteredCommunity hand-builds two trust-disjoint five-agent clusters
// ("a*" and "b*", each a trust ring rating its own half of the catalog),
// so a mutation inside one cluster provably cannot reach the other —
// the partitioned structure the delta carry exploits at corpus scale,
// where trust neighborhoods cover a small fraction of the agent set.
func clusteredCommunity(t *testing.T) *model.Community {
	t.Helper()
	tax := taxonomy.New("Root")
	topics := make([]taxonomy.Topic, 8)
	for i := range topics {
		d, err := tax.Add(taxonomy.Root, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		topics[i] = d
	}
	c := model.NewCommunity(tax)
	for i := 0; i < 12; i++ {
		c.AddProduct(model.Product{
			ID:     model.ProductID(fmt.Sprintf("p%d", i)),
			Topics: []taxonomy.Topic{topics[i%len(topics)]},
		})
	}
	pids := c.Products()
	for cl, prefix := range []string{"a", "b"} {
		for i := 0; i < 5; i++ {
			c.AddAgent(model.AgentID(fmt.Sprintf("%s%d", prefix, i)))
		}
		for i := 0; i < 5; i++ {
			src := model.AgentID(fmt.Sprintf("%s%d", prefix, i))
			dst := model.AgentID(fmt.Sprintf("%s%d", prefix, (i+1)%5))
			if err := c.SetTrust(src, dst, 0.9); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				if err := c.SetRating(src, pids[cl*6+(i+j)%6], 0.8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c
}

// TestSwapDeltaCarriesCleanAgentState pins the carry mechanics of a
// rating-only delta in a partitioned community: only the dirty agent's
// compiled row is rebuilt, the dirty cluster's cached results are
// dropped, the clean cluster is served straight from the carried result
// cache, and the catalog index and agent directory survive by pointer.
func TestSwapDeltaCarriesCleanAgentState(t *testing.T) {
	comm := clusteredCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := e.Snapshot()
	warmAll(t, snap1, 8)

	clone := comm.Clone()
	rater := model.AgentID("a0")
	if err := clone.SetRating(rater, comm.Products()[0], 0.3); err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.RatingsChanged[clone.Agent(rater).Ord()] = true

	snap2, err := e.SwapDelta(clone, d)
	if err != nil {
		t.Fatal(err)
	}

	// Compiled substrate: exactly the dirty agent recompiled.
	mat := snap2.Recommender().Filter().Matrix()
	if mat == nil {
		t.Fatal("delta swap did not compile the profile matrix")
	}
	if mat.Len() != clone.NumAgents() || mat.Built() != 1 {
		t.Fatalf("matrix len=%d built=%d, want len=%d built=1", mat.Len(), mat.Built(), clone.NumAgents())
	}

	// The dirty agent's result entry must not survive.
	if _, ok := snap2.CachedRecommend(rater, 8, Overrides{}); ok {
		t.Fatal("dirty agent's recommendation carried across the swap")
	}
	// The other cluster never sees the mutated agent, so every one of its
	// entries carries and serves as a hit — no recompute after the swap.
	for i := 0; i < 5; i++ {
		id := model.AgentID(fmt.Sprintf("b%d", i))
		if _, ok := snap2.CachedRecommend(id, 8, Overrides{}); !ok {
			t.Fatalf("clean agent %s lost its cached recommendation", id)
		}
	}
	hits := counter("results_hit")
	if _, err := snap2.Recommend("b0", 8, Overrides{}); err != nil {
		t.Fatal(err)
	}
	if counter("results_hit") != hits+1 {
		t.Fatal("carried entry did not serve as a cache hit")
	}

	// No product was added, no trust changed: catalog and directory
	// artifacts carry by pointer.
	if snap1.TopicIndex() != snap2.TopicIndex() {
		t.Fatal("topic index rebuilt despite unchanged catalog")
	}
	if &snap1.AgentsByTrustOut()[0] != &snap2.AgentsByTrustOut()[0] {
		t.Fatal("agent directory rebuilt despite unchanged agents and trust")
	}
}

// TestSwapWithoutDeltaStartsCold pins the fallback: a plain Swap (no
// delta information) must not carry any cached result.
func TestSwapWithoutDeltaStartsCold(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	warmAll(t, e.Snapshot(), 5)
	snap2, err := e.Swap(comm.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range comm.Agents() {
		if _, ok := snap2.CachedRecommend(id, 5, Overrides{}); ok {
			t.Fatalf("agent %s carried a result through a delta-less swap", id)
		}
	}
}

// TestTrustDirtySet pins the reverse-reachability rule: every agent with
// a forward trust path to a mutated source is dirty, nobody else is.
func TestTrustDirtySet(t *testing.T) {
	c := model.NewCommunity(nil)
	for _, id := range []model.AgentID{"a", "b", "c", "d", "e"} {
		c.AddAgent(id)
	}
	// a -> b -> c, e -> c, d isolated.
	for _, edge := range [][2]model.AgentID{{"a", "b"}, {"b", "c"}, {"e", "c"}} {
		if err := c.SetTrust(edge[0], edge[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ord := func(id model.AgentID) int32 { return c.Agent(id).Ord() }
	dirty := trustDirtySet(c.Adjacency(), c.NumAgents(), map[int32]bool{ord("c"): true})
	for _, id := range []model.AgentID{"a", "b", "c", "e"} {
		if !dirty[ord(id)] {
			t.Fatalf("agent %s can reach the mutated source but is not dirty", id)
		}
	}
	if dirty[ord("d")] {
		t.Fatal("isolated agent marked dirty")
	}
	// A source with no inbound paths dirties only itself.
	dirty = trustDirtySet(c.Adjacency(), c.NumAgents(), map[int32]bool{ord("a"): true})
	for _, id := range []model.AgentID{"b", "c", "d", "e"} {
		if dirty[ord(id)] {
			t.Fatalf("agent %s dirtied by a source-only mutation", id)
		}
	}
	if !dirty[ord("a")] {
		t.Fatal("mutated source not marked dirty")
	}
}

// unionDirtySet is the dirty-set rule written the obvious way — a
// reverse BFS over the union of both generations' statement maps, each
// target resolved by ID — kept as the oracle for the CSR transpose.
func unionDirtySet(oldC, newC *model.Community, sources map[int32]bool) []bool {
	if len(sources) == 0 {
		return nil
	}
	n := max(oldC.NumAgents(), newC.NumAgents())
	rev := make([][]int32, n)
	for _, c := range []*model.Community{oldC, newC} {
		for _, id := range c.Agents() {
			a := c.Agent(id)
			for _, st := range c.TrustStatements(a) {
				if p := c.Agent(st.Dst); p != nil {
					rev[p.Ord()] = append(rev[p.Ord()], a.Ord())
				}
			}
		}
	}
	dirty := make([]bool, n)
	var queue []int32
	for s := range sources {
		dirty[s] = true
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, p := range rev[x] {
			if !dirty[p] {
				dirty[p] = true
				queue = append(queue, p)
			}
		}
	}
	return dirty
}

// TestTrustDirtySetMatchesUnionBFS: on random sparse graphs — several
// weakly connected pieces, so the answer is neither empty nor everything
// — with random trust upserts and retractions applied to a clone,
// including statements by and about agents that join in the new
// generation, the dirty set computed from the old generation's CSR
// alone equals the union-of-both-generations BFS element for element
// (a new edge leaves a source, and a source is dirty already).
func TestTrustDirtySetMatchesUnionBFS(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		name := func(i int) model.AgentID { return model.AgentID(fmt.Sprintf("urn:a:%d", i)) }
		oldC := model.NewCommunity(nil)
		for i := 0; i < n; i++ {
			oldC.AddAgent(name(i))
		}
		for k := n + rng.Intn(n); k > 0; k-- {
			// Edges stay within blocks of ten: disjoint pieces.
			src := rng.Intn(n)
			dst := src/10*10 + rng.Intn(10)
			if dst < n && dst != src {
				if err := oldC.SetTrust(name(src), name(dst), rng.Float64()*2-1); err != nil {
					t.Fatal(err)
				}
			}
		}
		oldAdj := oldC.Adjacency()

		newC := oldC.Clone()
		sources := make(map[int32]bool)
		mark := func(id model.AgentID) { sources[newC.Agent(id).Ord()] = true }
		joiners := rng.Intn(4)
		for k := 1 + rng.Intn(6); k > 0; k-- {
			src := name(rng.Intn(n + joiners))
			switch rng.Intn(3) {
			case 0: // retract an existing statement, if the agent has one
				if a := newC.Agent(src); a != nil && len(a.TrustedPeers()) > 0 {
					newC.DeleteTrust(src, newC.Agents()[a.TrustedPeers()[0].Ord])
					mark(src)
				}
			default: // upsert, possibly across pieces and to or from a joiner
				dst := name(rng.Intn(n + joiners))
				if dst != src {
					if err := newC.SetTrust(src, dst, rng.Float64()); err != nil {
						t.Fatal(err)
					}
					mark(src)
				}
			}
		}
		if rng.Intn(2) == 0 && n > 0 {
			mark(name(rng.Intn(n))) // a conservative mark: nothing changed
		}

		got := trustDirtySet(oldAdj, newC.NumAgents(), sources)
		want := unionDirtySet(oldC, newC, sources)
		if len(got) != len(want) {
			t.Fatalf("seed %d: dirty set covers %d ordinals, want %d", seed, len(got), len(want))
		}
		nDirty := 0
		for ord := range want {
			if got[ord] != want[ord] {
				t.Fatalf("seed %d: agent %d dirty=%v, union BFS says %v (sources %v)", seed, ord, got[ord], want[ord], sources)
			}
			if want[ord] {
				nDirty++
			}
		}
		if len(sources) > 0 && nDirty == len(want) {
			t.Logf("seed %d: every agent dirty", seed)
		}
	}
}
