package trust

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

// benchTrustCommunity generates the small bench shape at the given size,
// or — at 9,100 agents — the paper's own community (§4.1,
// datagen.PaperScale).
func benchTrustCommunity(b *testing.B, agents int) *model.Community {
	b.Helper()
	cfg := datagen.PaperScale()
	if agents != cfg.Agents {
		cfg = datagen.SmallScale()
		cfg.Agents = agents
		cfg.Products = agents * 2
	}
	comm, _ := datagen.Generate(cfg)
	return comm
}

// BenchmarkAppleseed measures one full Appleseed computation — edges
// from the agents' trust rows, state in pooled node-indexed arrays, the
// result its only allocations — at serving scale and the paper's, the
// sources cycled as a server's requests are.
func BenchmarkAppleseed(b *testing.B) {
	ctx := context.Background()
	benchCycled(b, func(adj *model.Adjacency, src int32) (*Neighborhood, error) {
		return Appleseed(ctx, adj, src, AppleseedOptions{}, nil)
	})
}

// benchCycled measures a metric at serving scale and the paper's (§4.1),
// the sources cycled over the agents that trust someone, as a server's
// requests are. (A silent agent's neighborhood is empty and costs
// nothing; leaving those out makes every call allocate its two results,
// so allocs/op does not hover between 1 and 2 with b.N.) Two things keep
// B/op from depending on b.N: the cycle visits the sources in a spread
// order, so a short run samples the same community a long one does, and
// the set-up's garbage is collected before the timer starts, so no
// collection empties the metric's pool inside the timed loop, where the
// refill would read as B/op. Advogato at 9,100 agents read 18.1 KB/op
// over 200 calls and 7.8–9.6 over 1 s without them; with them 9.0 and
// 8.2–8.5.
func benchCycled(b *testing.B, walk func(adj *model.Adjacency, src int32) (*Neighborhood, error)) {
	for _, agents := range []int{2000, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			adj := benchTrustCommunity(b, agents).Adjacency()
			var sources []int32
			for x := int32(0); int(x) < agents; x++ {
				if row := adj.Trust(x); len(row) > 0 && row[0].Val > 0 {
					sources = append(sources, x)
				}
			}
			sources = spread(sources)
			runtime.GC()
			if _, err := walk(adj, sources[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := walk(adj, sources[i%len(sources)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// spread returns xs reordered so that every prefix samples all of it
// evenly: position k takes xs[k·step mod n] for a step near n times the
// golden section and coprime to n, a sequence whose prefixes fill the
// range with gaps of at most three sizes.
func spread(xs []int32) []int32 {
	n := len(xs)
	step := max(1, int(float64(n)*0.6180339887498949))
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]int32, n)
	for k := range out {
		out[k] = xs[k*step%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BenchmarkAdvogato measures the max-flow certification with the
// published capacity profile. Its allocation count is the gate against a
// return to a flow network built per call.
func BenchmarkAdvogato(b *testing.B) {
	benchCycled(b, func(adj *model.Adjacency, src int32) (*Neighborhood, error) {
		return Advogato(adj, src, AdvogatoOptions{})
	})
}

// BenchmarkPathTrust measures the scalar baseline's best-chain search.
func BenchmarkPathTrust(b *testing.B) {
	benchCycled(b, func(adj *model.Adjacency, src int32) (*Neighborhood, error) {
		return PathTrust(adj, src, PathTrustOptions{})
	})
}

// BenchmarkWidenOneHop measures the ladder's rung-2 horizon widening of
// a default (R = 400) neighbourhood; what it costs must not depend on the
// size of the community around it.
func BenchmarkWidenOneHop(b *testing.B) {
	for _, agents := range []int{2000, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			adj := benchTrustCommunity(b, agents).Adjacency()
			nb, err := Appleseed(context.Background(), adj, 0, AppleseedOptions{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				WidenOneHop(adj, nb, 0.5)
			}
		})
	}
}
