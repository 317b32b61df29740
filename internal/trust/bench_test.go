package trust

import (
	"fmt"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/model"
)

// plainNet hides the community adapter's compiled adjacency so a
// benchmark (or differential test) exercises the generic URI walk the way
// a partially crawled, non-community view would. It keeps the size hint —
// both paths deserve fair pre-sizing.
type plainNet struct{ c *model.Community }

func (n plainNet) Peers(a model.AgentID) []model.TrustStatement {
	ag := n.c.Agent(a)
	if ag == nil {
		return nil
	}
	return ag.TrustedPeers()
}

func (n plainNet) NumAgents() int { return n.c.NumAgents() }

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

// BenchmarkAppleseed measures one full Appleseed computation over the
// community adapter — the compiled walk: edges from the trust CSR, state
// in pooled node-indexed arrays, the result its only allocations.
func BenchmarkAppleseed(b *testing.B) {
	for _, agents := range []int{100, 400, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			comm := benchTrustCommunity(b, agents)
			net := FromCommunity(comm)
			src := comm.Agents()[0]
			// The first walk compiles the adapter's trust CSR: set-up, not
			// the steady state this measures.
			if _, err := Appleseed(net, src, AppleseedOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Appleseed(net, src, AppleseedOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppleseedGeneric measures the same computation over a Network
// that exposes nothing but Peers — the URI walk every non-community trust
// view takes, and the oracle the compiled walk is pinned to.
func BenchmarkAppleseedGeneric(b *testing.B) {
	for _, agents := range []int{100, 400, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			comm := benchTrustCommunity(b, agents)
			net := plainNet{comm}
			src := comm.Agents()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Appleseed(net, src, AppleseedOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathTrust measures the scalar baseline's best-chain search.
func BenchmarkPathTrust(b *testing.B) {
	comm := benchTrustCommunity(b, 400)
	net := FromCommunity(comm)
	src := comm.Agents()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PathTrust(net, src, PathTrustOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWidenOneHop measures the ladder's rung-2 horizon widening of
// a default (R = 400) neighbourhood; what it costs must not depend on the
// size of the community around it.
func BenchmarkWidenOneHop(b *testing.B) {
	for _, agents := range []int{400, 9100} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			comm := benchTrustCommunity(b, agents)
			net := FromCommunity(comm)
			src := comm.Agents()[0]
			nb, err := Appleseed(net, src, AppleseedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				WidenOneHop(net, nb, 0.5)
			}
		})
	}
}
