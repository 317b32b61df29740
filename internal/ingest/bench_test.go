package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// BenchmarkPublish measures one publish the way the worker performs it —
// Clone, 32 × Apply, deltaOf, SwapDelta — on the paper-shaped corpus,
// with the repo benchmark's churn write mix (70 % rating upserts, 30 %
// trust upserts) and 64 cold reads between publishes, outside the timer,
// so every swap supersedes a snapshot that has served: its adjacency is
// compiled, its memos are built and its caches hold entries to carry. It
// is the write path's per-layer benchmark; clone_us and swap_us split
// the total. A publish must cost what the batch touched: agents=2000 is
// the churn workload's warmed engine, agents=9100 the paper's community
// (unwarmed — the warmed paper-scale engine does not fit this box), and
// the two should differ by far less than their 4.5× in size.
func BenchmarkPublish(b *testing.B) {
	for _, bc := range []struct {
		agents int
		warm   bool
	}{{2000, true}, {9100, false}} {
		b.Run(fmt.Sprintf("agents=%d", bc.agents), func(b *testing.B) {
			cfg := datagen.PaperScale()
			cfg.Agents = bc.agents
			base, _ := datagen.Generate(cfg)
			eng, err := engine.New(base, core.Options{
				Alpha: 0.5, AlphaSet: true,
				CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
			}, engine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ids, pids := base.Agents(), base.Products()
			if bc.warm {
				eng.Warmup(0)
			} else if _, err := eng.Snapshot().Recommend(ids[0], 10, engine.Overrides{}); err != nil {
				// One read compiles the first snapshot's adjacency, as the
				// reads after each publish do for every later one.
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			muts := make([]wal.Mutation, 32)
			readers := make([]model.AgentID, 64)
			var cloning, swapping time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := range muts {
					src, dst := rng.Intn(len(ids)), rng.Intn(len(ids))
					if dst == src { // no self-trust: take the next agent
						dst = (dst + 1) % len(ids)
					}
					m := wal.Mutation{Op: wal.OpUpsertTrust, Agent: ids[src], Peer: ids[dst], Value: float64(200+rng.Intn(801)) / 1000}
					if rng.Intn(10) < 7 {
						m.Op, m.Peer, m.Product = wal.OpUpsertRating, "", pids[rng.Intn(len(pids))]
					}
					muts[k] = m
					readers[k], readers[32+k] = m.Agent, ids[rng.Intn(len(ids))]
				}
				b.StartTimer()

				t0 := time.Now()
				clone := base.Clone()
				t1 := time.Now()
				for _, m := range muts {
					if err := Apply(clone, m); err != nil {
						b.Fatal(err)
					}
				}
				d := deltaOf(base, clone, muts)
				t2 := time.Now()
				snap, err := eng.SwapDelta(clone, d)
				swapping += time.Since(t2)
				cloning += t1.Sub(t0)

				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				base = clone
				for _, id := range readers {
					if _, err := snap.Recommend(id, 10, engine.Overrides{}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(cloning.Microseconds())/float64(b.N), "clone_us")
			b.ReportMetric(float64(swapping.Microseconds())/float64(b.N), "swap_us")
		})
	}
}

// BenchmarkRecommendWhileIngesting is the read-path-isolation acceptance
// benchmark: a warm-cache Recommend against a pinned snapshot must stay
// within noise of the idle-engine figure (~350ns in the engine package's
// BenchmarkServeEngineWarm) while a background writer streams mutations
// through the full Submit → WAL → clone → Swap pipeline. Readers never
// touch the mutable clone, so the only cross-talk is memory bandwidth.
//
//	go test -bench=Recommend -benchmem ./internal/ingest/
func BenchmarkRecommendWhileIngesting(b *testing.B) {
	comm := testCommunity(b, 200, 400)
	eng := testEngine(b, comm)
	eng.Warmup(0)

	cfg := Config{
		SnapshotEvery:    512,
		SnapshotInterval: 50 * time.Millisecond,
		QueueSize:        4096,
		WAL:              wal.Options{NoSync: true},
	}
	p, err := Open(eng, b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	// The writer streams bursts at a steady pace (~64k mutations/s)
	// rather than spinning flat out: Go benchmark memstats are
	// process-wide, so an unthrottled writer would bill its own
	// allocations and GC assists to the reader being measured.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		muts := testMutations(comm, 1024)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for n := 0; n < 64; n++ {
				if _, err := p.Submit(muts[i%len(muts)]); err != nil && !errors.Is(err, ErrOverloaded) {
					return
				}
				i++
			}
		}
	}()

	// Pin one warm snapshot for the whole run, exactly as a request
	// handler does: swaps publish new epochs, but this reader's view is
	// immutable.
	snap := eng.Snapshot()
	id := snap.Community().Agents()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Recommend(id, 10, engine.Overrides{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkSubmitThroughput measures end-to-end write throughput of the
// pipeline (validate, enqueue, group commit, durable ack) with fsync
// disabled so the group-commit machinery is the measured cost.
func BenchmarkSubmitThroughput(b *testing.B) {
	comm := testCommunity(b, 100, 200)
	eng := testEngine(b, comm)
	cfg := Config{
		SnapshotEvery:    1 << 30,
		SnapshotInterval: time.Hour,
		QueueSize:        8192,
		WAL:              wal.Options{NoSync: true},
	}
	p, err := Open(eng, b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	muts := testMutations(comm, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := p.Submit(muts[i%len(muts)]); err != nil && !errors.Is(err, ErrOverloaded) {
				b.Fatal(err)
			}
		}
	})
}
