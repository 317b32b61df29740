package trust

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newFlowNet returns an empty network of n nodes.
func newFlowNet(n int) *flowNet {
	f := new(flowNet)
	f.reset(n)
	return f
}

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS-style network, known max-flow 23.
	f := newFlowNet(6)
	s, v1, v2, v3, v4, d := 0, 1, 2, 3, 4, 5
	f.addArc(s, v1, 16)
	f.addArc(s, v2, 13)
	f.addArc(v1, v2, 10)
	f.addArc(v2, v1, 4)
	f.addArc(v1, v3, 12)
	f.addArc(v3, v2, 9)
	f.addArc(v2, v4, 14)
	f.addArc(v4, v3, 7)
	f.addArc(v3, d, 20)
	f.addArc(v4, d, 4)
	if got := f.maxFlow(s, d); got != 23 {
		t.Fatalf("MaxFlow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnectedAndDegenerate(t *testing.T) {
	f := newFlowNet(4)
	f.addArc(0, 1, 5)
	f.addArc(2, 3, 5)
	if got := f.maxFlow(0, 3); got != 0 {
		t.Fatalf("disconnected flow = %d, want 0", got)
	}
	if got := f.maxFlow(0, 0); got != 0 {
		t.Fatalf("self flow = %d, want 0", got)
	}
	if got := f.maxFlow(-1, 3); got != 0 {
		t.Fatalf("invalid src flow = %d, want 0", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Two wide arcs around a 1-unit bottleneck in series.
	f := newFlowNet(4)
	f.addArc(0, 1, 100)
	f.addArc(1, 2, 1)
	f.addArc(2, 3, 100)
	if got := f.maxFlow(0, 3); got != 1 {
		t.Fatalf("MaxFlow = %d, want 1", got)
	}
	// Flow inspection: arc 1 (the bottleneck) carried exactly 1 unit.
	if got := f.flow(1); got != 1 {
		t.Fatalf("Flow(bottleneck) = %d, want 1", got)
	}
}

func TestMaxFlowNegativeCapacityClamped(t *testing.T) {
	f := newFlowNet(2)
	f.addArc(0, 1, -5)
	if got := f.maxFlow(0, 1); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
}

// Property: max-flow from s to t never exceeds the out-capacity of s or
// the in-capacity of t, and is non-negative.
func TestMaxFlowBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		fn := newFlowNet(n)
		outCap, inCap := 0, 0
		for i := 0; i < 24; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			c := rng.Intn(10)
			fn.addArc(a, b, c)
			if a == 0 {
				outCap += c
			}
			if b == n-1 {
				inCap += c
			}
		}
		got := fn.maxFlow(0, n-1)
		return got >= 0 && got <= outCap && got <= inCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a pure series chain, max-flow equals the minimum capacity.
func TestMaxFlowChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		fn := newFlowNet(n)
		minCap := int(^uint(0) >> 1)
		for i := 0; i+1 < n; i++ {
			c := 1 + rng.Intn(20)
			fn.addArc(i, i+1, c)
			if c < minCap {
				minCap = c
			}
		}
		return fn.maxFlow(0, n-1) == minCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFlowMatchesOracleArcByArc requires the counted-head solver to
// find the oracle's flow, not merely one of equal value: the same units
// on every arc of random networks with parallel and opposing arcs.
func TestMaxFlowMatchesOracleArcByArc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f flowNet // reused, as the pooled one is
	for round := 0; round < 200; round++ {
		n, arcs := 2+rng.Intn(12), rng.Intn(60)
		f.reset(n)
		want := newOracleFlowNetwork(n)
		for i := 0; i < arcs; i++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(6)
			f.addArc(a, b, c)
			want.AddArc(a, b, c)
		}
		if got, w := f.maxFlow(0, n-1), want.MaxFlow(0, n-1); got != w {
			t.Fatalf("round %d: max flow %d, oracle %d", round, got, w)
		}
		for k := 0; k < arcs; k++ {
			if got, w := f.flow(k), want.Flow(k); got != w {
				t.Fatalf("round %d: arc %d carries %d, oracle %d", round, k, got, w)
			}
		}
	}
}
