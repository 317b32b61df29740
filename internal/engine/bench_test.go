package engine

import (
	"context"
	"fmt"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/strategy"
)

// The serving engine's benchmarks: an uncached request on a compiled
// snapshot (ServeEngineCold) and a cached one (ServeEngineWarm), which
// must not scale with community size after first touch.
//
//	go test -bench=Serve -benchmem ./internal/engine/
func benchCommunity(b *testing.B, agents int) *datagen.Config {
	b.Helper()
	cfg := datagen.SmallScale()
	cfg.Agents = agents
	cfg.Products = agents * 2
	return &cfg
}

// BenchmarkServeEngineCold measures an uncached request on a compiled
// snapshot — Appleseed walk, similarity scan, rank synthesis and vote
// from scratch, the cost of every first read after a publish — at the
// repo benchmark's serving scale (2,000 agents) and at the paper's
// (§4.1: datagen.PaperScale, 9,100 agents, the serving options of the
// repo benchmark's cold-read workload). One-entry caches keep every
// request cold: consecutive requests ask for different agents.
func BenchmarkServeEngineCold(b *testing.B) {
	small := *benchCommunity(b, 2000)
	paperOpt := core.Options{
		Alpha: 0.5, AlphaSet: true,
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
	for _, bc := range []struct {
		cfg datagen.Config
		opt core.Options
	}{{small, testOptions()}, {datagen.PaperScale(), paperOpt}} {
		b.Run(fmt.Sprintf("agents=%d", bc.cfg.Agents), func(b *testing.B) {
			comm, _ := datagen.Generate(bc.cfg)
			e, err := New(comm, bc.opt, Config{PeerCacheSize: 1, ResultCacheSize: 1})
			if err != nil {
				b.Fatal(err)
			}
			snap := e.Snapshot()
			ids := comm.Agents()
			ctx := context.Background()
			// The snapshot's first cold request builds its profile matrix
			// and fills the pools: set-up, not the steady state this
			// measures.
			if _, err := snap.RecommendCtx(ctx, ids[len(ids)-1], 10, Overrides{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.RecommendCtx(ctx, ids[i%len(ids)], 10, Overrides{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeEngineWarm measures a cached Recommend at the repo
// benchmark's warmed community size: every agent's list is computed
// before the timer starts, and the timed requests cycle through all of
// them, so each is a results-cache hit on a cache holding 2,000 entries.
func BenchmarkServeEngineWarm(b *testing.B) {
	const agents = 2000
	b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
		comm, _ := datagen.Generate(*benchCommunity(b, agents))
		e, err := New(comm, testOptions(), Config{})
		if err != nil {
			b.Fatal(err)
		}
		e.Warmup(0)
		snap := e.Snapshot()
		ids := comm.Agents()
		for _, id := range ids {
			if _, err := snap.Recommend(id, 10, Overrides{}); err != nil {
				b.Fatal(err)
			}
		}
		misses := counter("results_miss")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snap.Recommend(ids[i%len(ids)], 10, Overrides{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := counter("results_miss") - misses; n != 0 {
			b.Fatalf("%d of %d requests missed the results cache", n, b.N)
		}
	})
}

// BenchmarkWarmup measures the parallel precompute pass itself.
func BenchmarkWarmup(b *testing.B) {
	comm, _ := datagen.Generate(*benchCommunity(b, 200))
	opt := testOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(comm, opt, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.Warmup(0)
	}
}

// BenchmarkAncestorRung measures one taxonomy-ancestor answer (strategy
// ladder rung 3) at the repo benchmark's two community sizes, with the
// rung pinned and the rung-1 base ranking already cached, so only the
// rung's own work is timed. "first" is the first such answer on a
// snapshot (a fresh engine per iteration, built off the clock): it pays
// for whatever the rung sets up once per snapshot. "repeat" is every
// later one: the rung's cached answer is dropped between iterations,
// the snapshot's shared state stays.
func BenchmarkAncestorRung(b *testing.B) {
	opt := core.Options{
		Alpha: 0.5, AlphaSet: true,
		CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
	pin := strategy.Selector{Pin: strategy.TaxonomyAncestor}
	ctx := context.Background()
	for _, agents := range []int{2000, 9100} {
		cfg := datagen.PaperScale()
		cfg.Agents = agents
		comm, _ := datagen.Generate(cfg)
		ids := comm.Agents()
		ring := make([]int, 16)
		for i := range ring {
			ring[i] = i * len(ids) / len(ring)
		}
		warmed := func(b *testing.B, ring []int) *Engine {
			e, err := New(comm, opt, Config{})
			if err != nil {
				b.Fatal(err)
			}
			for _, i := range ring {
				if _, err := e.Snapshot().RankedPeersCtx(ctx, ids[i], Overrides{}); err != nil {
					b.Fatal(err)
				}
			}
			return e
		}
		ask := func(b *testing.B, e *Engine, i int) {
			peers, res, err := e.RankedPeersLadder(ctx, e.Snapshot(), ids[i], Overrides{}, pin)
			if err != nil || res.Procedure != strategy.TaxonomyAncestor || len(peers) == 0 {
				b.Fatalf("rung did not answer: %v %+v", err, res)
			}
		}
		b.Run(fmt.Sprintf("agents=%d/first", agents), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := warmed(b, ring[:1])
				b.StartTimer()
				ask(b, e, ring[0])
			}
		})
		b.Run(fmt.Sprintf("agents=%d/repeat", agents), func(b *testing.B) {
			e := warmed(b, ring)
			ask(b, e, ring[0])
			snap := e.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := ring[i%len(ring)]
				snap.peers.drop(peerKey{agent: int32(at), pipe: pipeKey{rung: rungGen}})
				ask(b, e, at)
			}
		})
	}
}

// drop removes k, so a benchmark can make one cached artifact cold again
// without disturbing the rest of the snapshot.
func (c *sieveCache[K, V]) drop(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.remove(e)
	}
}
