package engine_test

import (
	"expvar"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
	"swrec/internal/wal"
)

const (
	oracleClusters    = 10
	oracleClusterSize = 6
	oracleProducts    = 40
	oracleTopN        = 8
)

func oracleAgent(cluster, i int) model.AgentID {
	return model.AgentID(fmt.Sprintf("urn:a:%d-%d", cluster, i))
}

func oracleProduct(i int) model.ProductID { return model.ProductID(fmt.Sprintf("urn:p:%d", i)) }

// oracleCommunity builds ten trust-disjoint clusters (a ring plus chords
// each) over one catalog — the partitioned shape under which a publish
// carries some cache entries and drops others. Deterministic in seed, so
// calling it twice yields two communities that share nothing.
func oracleCommunity(t *testing.T, seed int64) *model.Community {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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
	for i := 0; i < oracleProducts; i++ {
		c.AddProduct(model.Product{ID: oracleProduct(i), Topics: []taxonomy.Topic{topics[i%len(topics)], topics[(i/3)%len(topics)]}})
	}
	for cl := 0; cl < oracleClusters; cl++ {
		for i := 0; i < oracleClusterSize; i++ {
			c.AddAgent(oracleAgent(cl, i))
		}
		for i := 0; i < oracleClusterSize; i++ {
			src := oracleAgent(cl, i)
			for _, j := range []int{(i + 1) % oracleClusterSize, rng.Intn(oracleClusterSize)} {
				if j != i {
					if err := c.SetTrust(src, oracleAgent(cl, j), 0.5+rng.Float64()/2); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 6; k++ {
				if err := c.SetRating(src, oracleProduct(rng.Intn(oracleProducts)), rng.Float64()*1.5-0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c
}

// oracleBatch draws one 32-write batch against the clusters in touch:
// rating upserts and retractions, trust upserts and retractions (now and
// then across clusters), and — once each — a joiner that is named, states
// trust and is trusted, and a rating of a product the catalog has never
// seen.
func oracleBatch(rng *rand.Rand, epoch int, touch []int) []wal.Mutation {
	agent := func() model.AgentID {
		return oracleAgent(touch[rng.Intn(len(touch))], rng.Intn(oracleClusterSize))
	}
	joiner := model.AgentID(fmt.Sprintf("urn:a:joiner-%d", epoch))
	muts := []wal.Mutation{
		{Op: wal.OpUpsertAgent, Agent: joiner, Name: fmt.Sprintf("Joiner %d", epoch)},
		{Op: wal.OpUpsertTrust, Agent: joiner, Peer: agent(), Value: 0.9},
		{Op: wal.OpUpsertTrust, Agent: agent(), Peer: joiner, Value: 0.7},
		{Op: wal.OpUpsertRating, Agent: joiner, Product: oracleProduct(rng.Intn(oracleProducts)), Value: 0.8},
		{Op: wal.OpUpsertRating, Agent: agent(), Product: model.ProductID(fmt.Sprintf("urn:p:uncatalogued-%d", epoch)), Value: 0.6},
	}
	for len(muts) < 32 {
		a := agent()
		switch k := rng.Intn(10); {
		case k < 5:
			muts = append(muts, wal.Mutation{Op: wal.OpUpsertRating, Agent: a, Product: oracleProduct(rng.Intn(oracleProducts)), Value: float64(rng.Intn(21)-5) / 16})
		case k < 6:
			muts = append(muts, wal.Mutation{Op: wal.OpDeleteRating, Agent: a, Product: oracleProduct(rng.Intn(oracleProducts))})
		case k < 9:
			peer := agent()
			if k == 8 { // across clusters: two pieces of the graph merge
				peer = oracleAgent(rng.Intn(oracleClusters), rng.Intn(oracleClusterSize))
			}
			if peer != a {
				muts = append(muts, wal.Mutation{Op: wal.OpUpsertTrust, Agent: a, Peer: peer, Value: float64(rng.Intn(21)-4) / 16})
			}
		default:
			muts = append(muts, wal.Mutation{Op: wal.OpDeleteTrust, Agent: a, Peer: oracleAgent(touch[0], rng.Intn(oracleClusterSize))})
		}
	}
	return muts
}

// oracleDelta summarizes a batch the way the ingest worker does: what
// each operation marks, novelty judged against the pre-application base.
func oracleDelta(base, clone *model.Community, muts []wal.Mutation) *engine.Delta {
	d := engine.NewDelta()
	sym := clone.Symbols()
	for _, m := range muts {
		ord, _ := sym.AgentOrd(m.Agent)
		switch m.Op {
		case wal.OpUpsertTrust, wal.OpDeleteTrust:
			d.TrustChanged[ord] = true
		case wal.OpUpsertRating, wal.OpDeleteRating:
			d.RatingsChanged[ord] = true
		}
		if !base.HasAgent(m.Agent) || (m.Peer != "" && !base.HasAgent(m.Peer)) {
			d.AgentsAdded = true
		}
		if m.Product != "" && base.Product(m.Product) == nil {
			d.ProductsChanged = true
		}
	}
	return d
}

func engineCounter(name string) int64 {
	if v, ok := expvar.Get("swrec_engine").(*expvar.Map).Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// TestSwapDeltaMatchesFromScratchRebuild is the delta-carry correctness
// gate: ten consecutive random 32-write batches are published the way
// the ingest worker publishes them — Clone, ingest.Apply, SwapDelta —
// each generation sharing records with the ones before it, and after
// every publish each agent's neighborhood and recommendations, carried
// from cache and recomputed alike, must equal bit for bit a core.New
// pipeline over a community built from scratch with the same writes and
// never cloned.
func TestSwapDeltaMatchesFromScratchRebuild(t *testing.T) {
	const epochs = 10
	opt := core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
	base := oracleCommunity(t, 1)
	scratch := oracleCommunity(t, 1)
	e, err := engine.New(base, opt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	compare := func(epoch int) {
		t.Helper()
		snap := e.Snapshot()
		rec, err := core.New(scratch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(snap.Community().Agents(), scratch.Agents()) {
			t.Fatalf("epoch %d: agent sets differ", epoch)
		}
		for _, id := range scratch.Agents() {
			peers, err := snap.RankedPeers(id, engine.Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			wantPeers, err := rec.RankedPeers(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(peers) != len(wantPeers) {
				t.Fatalf("epoch %d agent %s: %d peers, want %d", epoch, id, len(peers), len(wantPeers))
			}
			// The ordinal tables are equal, so equal ranks name equal peers.
			for i, p := range peers {
				if w := wantPeers[i]; p != w {
					t.Fatalf("epoch %d agent %s peer %d: %+v, want %+v", epoch, id, i, p, w)
				}
			}
			recs, err := snap.Recommend(id, oracleTopN, engine.Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := rec.Recommend(id, oracleTopN)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(recs, want) {
				t.Fatalf("epoch %d agent %s: recommendations %+v, want %+v", epoch, id, recs, want)
			}
		}
	}
	compare(0) // also warms every agent's entries for the first carry

	rng := rand.New(rand.NewSource(7))
	carried, dirty := engineCounter("carried_peers"), engineCounter("dirty_agents")
	for epoch := 1; epoch <= epochs; epoch++ {
		touch := rng.Perm(oracleClusters)[:2]
		muts := oracleBatch(rng, epoch, touch)
		clone := base.Clone()
		for _, m := range muts {
			if err := ingest.Apply(clone, m); err != nil {
				t.Fatalf("epoch %d: apply %+v: %v", epoch, m, err)
			}
			if err := ingest.Apply(scratch, m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.SwapDelta(clone, oracleDelta(base, clone, muts)); err != nil {
			t.Fatal(err)
		}
		base = clone
		compare(epoch)
	}
	// The comparison must have exercised both paths.
	if n := engineCounter("carried_peers") - carried; n == 0 {
		t.Fatal("no neighborhood was ever carried: the oracle only saw recomputed entries")
	}
	if n := engineCounter("dirty_agents") - dirty; n == 0 {
		t.Fatal("no agent was ever dirty: the oracle only saw carried entries")
	}
}
