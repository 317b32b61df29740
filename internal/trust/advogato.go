package trust

import (
	"fmt"
	"sync"

	"swrec/internal/model"
)

// AdvogatoOptions parameterize the Advogato group trust metric
// (Levien & Aiken [11]), the paper's baseline: a max-flow computation over
// a node-split trust graph that yields boolean accept/reject decisions —
// precisely the coarseness Appleseed's continuous ranks improve upon.
type AdvogatoOptions struct {
	// CapacityProfile assigns flow capacity by BFS distance from the
	// source: profile[0] is the source's capacity, profile[1] that of its
	// direct trustees, and so on. Agents beyond the profile get capacity
	// 1 (they can only certify themselves). The default, {200, 50, 12,
	// 4, 2, 1}, follows Advogato's published decreasing-capacity scheme.
	CapacityProfile []int
	// MinWeight in [0, 1) is the trust value a statement must exceed to
	// count as a certification edge; Advogato's input is boolean, so
	// continuous statements are thresholded. Default 0 (any positive
	// statement). It cannot be negative: distrust never certifies (§3.1).
	MinWeight float64
}

func (o AdvogatoOptions) withDefaults() AdvogatoOptions {
	if len(o.CapacityProfile) == 0 {
		o.CapacityProfile = []int{200, 50, 12, 4, 2, 1}
	}
	return o
}

func (o AdvogatoOptions) validate() error {
	for i, c := range o.CapacityProfile {
		if c < 1 {
			return fmt.Errorf("trust: capacity profile entry %d must be >= 1, got %d", i, c)
		}
	}
	if o.MinWeight < 0 || o.MinWeight >= 1 {
		return fmt.Errorf("trust: min weight must be in [0,1), got %v", o.MinWeight)
	}
	return nil
}

// infiniteCap stands in for unbounded arc capacity in the flow network.
const infiniteCap = 1 << 30

// certification is the pooled state of one Advogato computation.
type certification struct {
	nodeTable
	dist []int32 // by node: BFS distance from the source
	flow flowNet
}

var certificationPool sync.Pool

// Advogato computes the boolean trust neighborhood of the agent with
// ordinal source: the set of peers accepted by the max-flow
// certification. Every accepted peer gets rank 1 — Advogato "can only
// make boolean decisions with respect to trustworthiness" (§3.2).
//
// Construction (the node-splitting transform of [11]):
//
//   - BFS from the source over certification edges — the statements above
//     MinWeight, a prefix of each trust row — bounded by the capacity
//     profile length, assigns each discovered agent a capacity cap(x) by
//     distance;
//   - each agent x becomes x⁻ → x⁺ with capacity cap(x)-1, plus a
//     unit-capacity edge x⁻ → supersink;
//   - each certification x → y becomes x⁺ → y⁻ with infinite capacity;
//   - a peer is accepted iff the max flow from source⁻ to the supersink
//     saturates its unit edge.
//
// Max-flow does not make the accepted set unique; the arcs go in in a
// fixed order (all splits by node, then the certifications by certifier
// and row position) and the solver tries them in that order, so it is
// deterministic. source must lie in [0, adj.NumAgents()).
func Advogato(adj *model.Adjacency, source int32, opt AdvogatoOptions) (*Neighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	profile := opt.CapacityProfile
	c, _ := certificationPool.Get().(*certification)
	if c == nil || len(c.at) < adj.NumAgents() {
		c = &certification{nodeTable: nodeTable{at: make([]int32, adj.NumAgents())}}
	}

	// Level-bounded BFS. Nodes are numbered as they are discovered, which
	// is the order a queue would serve them in, so the node sequence is
	// the queue; agents past the profile are not expanded, and they are a
	// suffix of it.
	c.node(source)
	c.dist = append(c.dist[:0], 0)
	explored := 0
	for ; explored < len(c.ord) && int(c.dist[explored]) < len(profile); explored++ {
		for _, e := range adj.Trust(c.ord[explored]) {
			if e.Val <= opt.MinWeight {
				break // the certifications are a prefix of the row
			}
			if _, fresh := c.node(e.Ord); fresh {
				c.dist = append(c.dist, c.dist[explored]+1)
			}
		}
	}

	// Build the node-split flow network. Node i maps to in-node 2i and
	// out-node 2i+1; the supersink sits past all split nodes. Node i's
	// unit edge to the sink is arc 2i+1.
	n := len(c.ord)
	sink := 2 * n
	c.flow.reset(sink + 1)
	for i, d := range c.dist {
		capacity := 1
		if int(d) < len(profile) {
			capacity = profile[d]
		}
		c.flow.addArc(2*i, 2*i+1, capacity-1)
		c.flow.addArc(2*i, sink, 1)
	}
	for x := 0; x < explored; x++ {
		for _, e := range adj.Trust(c.ord[x]) {
			if e.Val <= opt.MinWeight {
				break
			}
			c.flow.addArc(2*x+1, 2*int(c.at[e.Ord]-1), infiniteCap)
		}
	}
	// Every unit of flow saturates one agent's unit edge, the source's
	// own among them.
	accepted := c.flow.maxFlow(0, sink) - 1

	nb := &Neighborhood{Source: source, Iterations: len(profile), Explored: explored}
	nb.Ranks = make([]Rank, 0, accepted)
	for i := 1; i < n; i++ { // skip the source itself
		if c.flow.flow(2*i+1) > 0 {
			nb.Ranks = append(nb.Ranks, Rank{Trust: 1, ord: c.ord[i]})
		}
	}
	sortRanks(nb.Ranks, adj.Community().Agents())
	c.reset()
	certificationPool.Put(c)
	return nb, nil
}
