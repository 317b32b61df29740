package engine

import (
	"context"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/strategy"
)

// TestCachedResultsAreExactSize is the regression test for the result
// cache's retention bug: a top-10 answer used to be a ten-item window on
// the whole candidate array, which the cache then kept alive (~0.25 MB
// per cached answer at 2,000 agents). Every list that reaches
// Snapshot.results — straight through RecommendCtx or through a ladder
// rung's vote — must own an array of exactly its length.
func TestCachedResultsAreExactSize(t *testing.T) {
	comm, _, thin, disjoint := fixtureCommunity(t)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	ctx := context.Background()

	healthy := comm.Agents()[0]
	all, err := snap.RecommendCtx(ctx, healthy, 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := snap.RecommendCtx(ctx, healthy, 10, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= 10 || len(recs) != 10 {
		t.Fatalf("fixture: %d candidates, top-10 has %d — the answer must be a real truncation", len(all), len(recs))
	}
	if cap(recs) != len(recs) {
		t.Fatalf("RecommendCtx: answer of %d items holds an array of %d", len(recs), cap(recs))
	}

	rungs := map[strategy.Procedure]bool{}
	for _, id := range append(comm.Agents()[:8:8], thin, disjoint) {
		recs, res, err := e.RecommendLadder(ctx, snap, id, 10, Overrides{}, strategy.Selector{})
		if err != nil {
			t.Fatal(err)
		}
		rungs[res.Procedure] = true
		if cap(recs) != len(recs) && res.Procedure != strategy.Popularity { // popularity answers are never cached
			t.Fatalf("ladder (%s) for %s: answer of %d items holds an array of %d", res.Procedure, id, len(recs), cap(recs))
		}
	}
	for _, p := range []strategy.Procedure{strategy.FullSynthesis, strategy.TrustHopWidening, strategy.TaxonomyAncestor} {
		if !rungs[p] {
			t.Fatalf("fixture: no request was answered by %s", p)
		}
	}
	entries := snap.results.entries()
	if len(entries) < 10 {
		t.Fatalf("only %d cached results", len(entries))
	}
	for _, e := range entries {
		if cap(e.val) != len(e.val) {
			t.Fatalf("cached result for agent %d (n=%d, rung %q): %d items in an array of %d",
				e.key.agent, e.key.n, e.key.pipe.rung, len(e.val), cap(e.val))
		}
	}
}

// TestColdRecommendAllocs holds the cold path to its allocation budget:
// an uncached request at 2,000 agents builds its neighborhood, peer
// ranking and answer — and little else. Walk state, similarity buffers
// and the vote table are pooled; before the compiled adjacency this
// path made ~1,800 allocations.
func TestColdRecommendAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2,000-agent engine")
	}
	cfg := datagen.PaperScale()
	cfg.Agents = 2000
	comm, _ := datagen.Generate(cfg)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	ctx := context.Background()
	ids := comm.Agents()
	next := 0
	cold := func() {
		if _, err := snap.RecommendCtx(ctx, ids[next], 10, Overrides{}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	cold() // compiles the adjacency and fills the pools
	if got := testing.AllocsPerRun(50, cold); got > 128 {
		t.Fatalf("cold RecommendCtx makes %.0f allocations, budget 128", got)
	} else {
		t.Logf("cold RecommendCtx: %.0f allocations", got)
	}
}
