package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"swrec/internal/core"
)

// walkSignals is the per-request loop ladderSignals ran before the
// neighbourhood entries carried their own sums: the oracle for
// TestLadderSignalsMatchRankingWalk.
func walkSignals(peers []core.PeerRank) (n int, energy, topSim float64) {
	for _, p := range peers {
		energy += p.Trust
		if p.SimOK && p.Sim > topSim {
			topSim = p.Sim
		}
	}
	return len(peers), energy, topSim
}

// TestLadderSignalsMatchRankingWalk: the signals kept with a cached
// neighbourhood are bit-equal to summing the ranking on every request —
// for entries built by a cold read, served again from the cache, built
// under overrides, carried by a delta swap, and seeded by a restore.
func TestLadderSignalsMatchRankingWalk(t *testing.T) {
	comm, _, _, _ := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	pathtrust := core.PathTrust
	variants := []Overrides{{}, {Metric: &pathtrust}}
	check := func(stage string, e *Engine) {
		t.Helper()
		snap := e.Snapshot()
		nonZero := 0
		for _, id := range snap.comm.Agents() {
			for _, ov := range variants {
				sig, peers, err := e.ladderSignals(context.Background(), snap, snap.comm.Agent(id), ov)
				if err != nil {
					t.Fatalf("%s %s: %v", stage, id, err)
				}
				n, energy, topSim := walkSignals(peers)
				if sig.Peers != n || sig.Energy != energy || sig.TopSim != topSim {
					t.Fatalf("%s %s: signals (%d, %v, %v), the ranking sums to (%d, %v, %v)",
						stage, id, sig.Peers, sig.Energy, sig.TopSim, n, energy, topSim)
				}
				if energy != 0 && topSim != 0 {
					nonZero++
				}
			}
		}
		if nonZero == 0 {
			t.Fatalf("%s: every neighbourhood summed to zero; the comparison proved nothing", stage)
		}
	}
	check("cold", e)
	check("cached", e)

	clone := comm.Clone()
	rater := comm.Agents()[5]
	if err := clone.SetRating(rater, comm.Products()[0], 0.7); err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	d.RatingsChanged[clone.Agent(rater).Ord()] = true
	carried := counter("carried_peers")
	if _, err := e.SwapDelta(clone, d); err != nil {
		t.Fatal(err)
	}
	if counter("carried_peers") == carried {
		t.Fatal("the delta swap carried no neighbourhood")
	}
	check("carried", e)

	snap := e.Snapshot()
	restored, err := NewRestored(Restore{
		Epoch:     snap.Epoch(),
		Community: snap.Community(),
		Matrix:    snap.Recommender().Filter().Matrix(),
		Peers:     snap.ExportPeers(),
	}, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	misses := counter("peers_miss")
	check("restored", restored)
	if counter("peers_miss") != misses {
		t.Fatal("the restored engine recomputed a neighbourhood it was seeded with")
	}
}

// TestBodyCacheStaysInsideBudget: however many responses are stored, the
// snapshot holds at most bodyBudget bytes of them, an entry read again
// outlives the unread ones, an oversized entry is refused, and nothing
// crosses a swap.
func TestBodyCacheStaysInsideBudget(t *testing.T) {
	e, err := New(testCommunity(t, 20, 30), testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	body := bytes.Repeat([]byte("x"), 3000)
	path := func(i int) string { return fmt.Sprintf("/v1/agents/a%d/recommendations", i) }
	const n = 3 * bodyBudget / 3000
	for i := 0; i < n; i++ {
		snap.StoreBody(path(i), "", "n=10", 7, body)
		if i == 0 || i%64 != 0 {
			continue
		}
		// Entry 0 is read between stores: each read sets its visited
		// bit, so the hand passes over it while unread entries go.
		if _, _, ok := snap.Body(path(0), "", "n=10"); !ok {
			t.Fatalf("after %d stores the most recently read entry was evicted", i)
		}
		if w := snap.bodies.used; w > bodyBudget {
			t.Fatalf("after %d stores the cache holds %d bytes, budget %d", i, w, bodyBudget)
		}
	}
	if w := snap.bodies.used; w < bodyBudget*9/10 {
		t.Fatalf("cache holds %d bytes after %d stores; the budget (%d) was never reached", w, n, bodyBudget)
	}
	if _, _, ok := snap.Body(path(1), "", "n=10"); ok {
		t.Fatal("the oldest unread entry survived three budgets' worth of stores")
	}
	got, tag, ok := snap.Body(path(n-1), "", "n=10")
	if !ok || tag != 7 || !bytes.Equal(got, body) {
		t.Fatalf("newest entry: ok=%v tag=%d len=%d", ok, tag, len(got))
	}
	if _, _, ok := snap.Body(path(n-1), "", "n=11"); ok {
		t.Fatal("a different query hit the entry")
	}
	if _, _, ok := snap.Body(path(n-1), path(n-1), "n=10"); ok {
		t.Fatal("a different raw path hit the entry")
	}

	before := snap.bodies.used
	snap.StoreBody("/big", "", "", 1, make([]byte, MaxBodyEntry+1))
	if _, _, ok := snap.Body("/big", "", ""); ok || snap.bodies.used != before {
		t.Fatal("an entry over MaxBodyEntry was stored")
	}

	next, err := e.SwapDelta(snap.Community().Clone(), NewDelta())
	if err != nil {
		t.Fatal(err)
	}
	if next.bodies.len() != 0 {
		t.Fatalf("an empty-delta swap carried %d response bodies", next.bodies.len())
	}
}
