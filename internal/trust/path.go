package trust

import (
	"fmt"
	"sync"

	"swrec/internal/model"
)

// PathTrustOptions parameterize the scalar path-multiplication baseline.
type PathTrustOptions struct {
	// Horizon bounds the path length in hops. Default 4.
	Horizon int
	// MinTrust prunes paths whose accumulated strength falls below this
	// value; it bounds exploration the way Appleseed's energy threshold
	// does. Default 0.01.
	MinTrust float64
}

func (o PathTrustOptions) withDefaults() PathTrustOptions {
	if o.Horizon == 0 {
		o.Horizon = 4
	}
	if o.MinTrust == 0 {
		o.MinTrust = 0.01
	}
	return o
}

func (o PathTrustOptions) validate() error {
	if o.Horizon < 1 {
		return fmt.Errorf("trust: horizon must be >= 1, got %d", o.Horizon)
	}
	if o.MinTrust < 0 || o.MinTrust >= 1 {
		return fmt.Errorf("trust: min trust must be in [0,1), got %v", o.MinTrust)
	}
	return nil
}

// ptItem is one frontier entry of the best-path search: a discovered
// agent's node, the strength of the chain that reached it and its length.
type ptItem struct {
	node, hops int32
	strength   float64
}

// ptHeap is a binary max-heap on path strength, so peers are finalized in
// best-first order (Dijkstra over the (max, ×) semiring). push and pop
// sift exactly as container/heap does: with a horizon, which of two
// equally strong chains reaches a peer first decides how far it is
// expanded, so the order among ties is part of the metric.
type ptHeap []ptItem

func (h *ptHeap) push(it ptItem) {
	s := append(*h, it)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || s[j].strength <= s[i].strength {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *ptHeap) pop() ptItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].strength > s[j].strength {
			j++
		}
		if s[j].strength <= s[i].strength {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// chainSearch is the pooled state of one PathTrust computation.
type chainSearch struct {
	nodeTable
	// best, by node, is the strongest chain found so far; 0 is a node
	// numbered a moment ago and not yet reached (strengths are positive).
	best []float64
	done []bool // by node: finalized
	heap ptHeap
}

var chainSearchPool sync.Pool

// PathTrust scores every peer reachable from the agent with ordinal
// source within the horizon by the strength of the best multiplicative
// chain of positive trust values, in the tradition of scalar metrics for
// open networks (Beth, Borcherding & Klein [10]). It is the experiments'
// stand-in for classic scalar trust metrics: unlike Appleseed it evaluates
// each peer independently of how many distinct paths support it.
//
// It relaxes over trust rows, whose positive statements are a prefix
// in descending order, with best/done by node and a typed heap; the
// result is its only allocation. source must lie in [0, adj.NumAgents()).
func PathTrust(adj *model.Adjacency, source int32, opt PathTrustOptions) (*Neighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	s, _ := chainSearchPool.Get().(*chainSearch)
	if s == nil || len(s.at) < adj.NumAgents() {
		s = &chainSearch{nodeTable: nodeTable{at: make([]int32, adj.NumAgents())}}
	}

	s.node(source)
	s.best = append(s.best[:0], 1)
	s.done = append(s.done[:0], false)
	s.heap.push(ptItem{strength: 1})
	explored := 0
	maxHops := int32(0)
	for len(s.heap) > 0 {
		it := s.heap.pop()
		if s.done[it.node] || it.strength < s.best[it.node] {
			continue
		}
		s.done[it.node] = true
		maxHops = max(maxHops, it.hops)
		if int(it.hops) >= opt.Horizon {
			continue
		}
		explored++
		for _, e := range adj.Trust(s.ord[it.node]) {
			st := it.strength * e.Val
			if e.Val <= 0 || st < opt.MinTrust {
				break // the row descends: every later chain is weaker still
			}
			ni, fresh := s.node(e.Ord)
			if fresh {
				s.best, s.done = append(s.best, 0), append(s.done, false)
			}
			if s.done[ni] {
				continue
			}
			if st > s.best[ni] {
				s.best[ni] = st
				s.heap.push(ptItem{node: ni, hops: it.hops + 1, strength: st})
			}
		}
	}

	// Every numbered peer was reached by a chain of at least MinTrust > 0.
	nb := &Neighborhood{Source: source, Iterations: int(maxHops), Explored: explored}
	nb.Ranks = make([]Rank, 0, len(s.ord)-1)
	for i, x := range s.ord[1:] {
		nb.Ranks = append(nb.Ranks, Rank{Trust: s.best[i+1], ord: x})
	}
	sortRanks(nb.Ranks, adj.Community().Agents())
	s.reset()
	chainSearchPool.Put(s)
	return nb, nil
}
