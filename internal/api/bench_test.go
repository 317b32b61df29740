package api

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
)

// BenchmarkServeHTTPWarm is the repo benchmark's warm-read workload as a
// go test benchmark: the 2,000-agent datagen.PaperScale() community,
// warmed, and the same 60/15/10/7/8 mix of recommendations, neighbors,
// profile, agent and product GETs over Zipf(1.1) agents, served by
// ServeHTTP into a reused discarding writer.
//
//   - hit: every request was asked before in this epoch, so every
//     iteration is answered from the snapshot's response cache (checked:
//     no handler runs inside the timer). `make check` gates this one — a
//     warm GET that goes back to routing and re-encoding is ~50× slower.
//   - hit-parallel: hit under b.RunParallel, one writer per goroutine,
//     so readers of one snapshot contend for its body cache. Run it at
//     -cpu 1,2,4,8 for the scaling curve.
//   - miss: every request carries a never-seen, ignored query parameter,
//     so every iteration routes, runs its handler over warm engine caches,
//     encodes, and stores the body. `make check` gates its allocations.
//   - miss/recommendations … miss/product: the same over one endpoint's
//     share of the draws, so a change to one encoder shows as its own
//     line (-bench 'ServeHTTPWarm/miss/profile'; 'ServeHTTPWarm/miss'
//     runs the mix and all five).
func BenchmarkServeHTTPWarm(b *testing.B) {
	cfg := datagen.PaperScale()
	cfg.Agents = 2000
	comm, _ := datagen.Generate(cfg)
	eng, err := engine.New(comm, core.Options{
		Alpha: 0.5, AlphaSet: true,
		Metric: core.Appleseed,
		CF:     cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}, engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng.WarmupCtx(context.Background(), 2)
	s := New(eng)

	// 1,024 draws are ~700 distinct requests, ~2 MB of bodies: all of
	// them stay inside the cache's budget, so `hit` never misses.
	const draws = 1024
	agents, products := comm.Agents(), comm.Products()
	agentRank := datagen.NewZipf(1117, 1.1, len(agents))
	productRank := datagen.NewZipf(1118, 1.1, len(products))
	targets := make([]string, draws)
	byShape := make(map[string][]string)
	for i := range targets {
		agent := "/v1/agents/" + url.PathEscape(string(agents[agentRank.Pick(uint64(i))]))
		shape := "product"
		switch u := datagen.Uniform01(1119, uint64(i)); {
		case u < 0.60:
			shape, targets[i] = "recommendations", agent+"/recommendations?n=10"
		case u < 0.75:
			shape, targets[i] = "neighbors", agent+"/neighbors?n=25"
		case u < 0.85:
			shape, targets[i] = "profile", agent+"/profile?n=15"
		case u < 0.92:
			shape, targets[i] = "agent", agent
		default:
			targets[i] = "/v1/products/" + url.PathEscape(string(products[productRank.Pick(uint64(i))]))
		}
		byShape[shape] = append(byShape[shape], targets[i])
	}
	w := &reusedWriter{hdr: make(http.Header)}
	misses := func() int64 { return counter("swrec_engine", "body_miss") }

	b.Run("hit", func(b *testing.B) {
		reqs := make([]*http.Request, draws)
		for i, target := range targets {
			reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
			s.ServeHTTP(w, reqs[i])
		}
		before := misses()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ServeHTTP(w, reqs[i%draws])
		}
		b.StopTimer()
		if n := misses() - before; n != 0 {
			b.Fatalf("%d of %d requests ran a handler", n, b.N)
		}
	})

	b.Run("hit-parallel", func(b *testing.B) {
		reqs := make([]*http.Request, draws)
		for i, target := range targets {
			reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
			s.ServeHTTP(w, reqs[i])
		}
		before := misses()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &reusedWriter{hdr: make(http.Header)}
			for i := 0; pb.Next(); i++ {
				s.ServeHTTP(w, reqs[i%draws])
			}
		})
		b.StopTimer()
		if n := misses() - before; n != 0 {
			b.Fatalf("%d of %d requests ran a handler", n, b.N)
		}
	})

	round := 0 // the framework calls the function once per b.N it tries
	miss := func(targets []string) func(b *testing.B) {
		return func(b *testing.B) {
			round++
			reqs := make([]*http.Request, b.N)
			for i := range reqs {
				target := targets[i%len(targets)]
				sep := "?"
				if strings.Contains(target, "?") {
					sep = "&"
				}
				reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("%s%sfresh=%d.%d", target, sep, round, i), nil)
			}
			before := misses()
			b.ReportAllocs()
			b.ResetTimer()
			for _, req := range reqs {
				s.ServeHTTP(w, req)
			}
			b.StopTimer()
			if n := misses() - before; n != int64(b.N) {
				b.Fatalf("%d of %d requests ran a handler", n, b.N)
			}
		}
	}
	b.Run("miss", miss(targets))
	for _, shape := range []string{"recommendations", "neighbors", "profile", "agent", "product"} {
		b.Run("miss/"+shape, miss(byShape[shape]))
	}
}

// BenchmarkMetricsScrape is one GET /v1/metrics with every endpoint
// class's histogram populated: 1,000 requests booked per class, their
// latencies spread log-uniformly over 1 µs–100 ms. It reports the body's
// size as body_B.
func BenchmarkMetricsScrape(b *testing.B) {
	s, _, _ := newTestServer(b)
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		for i := 0; i < 1000; i++ {
			account(ep, http.StatusOK, statusOK, time.Duration(1e3*math.Pow(1e5, datagen.Uniform01(1120, uint64(i)))))
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := &reusedWriter{hdr: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.n)/float64(b.N), "body_B")
}
