package trust

import (
	"context"
	"fmt"
	"math"
	"sync"

	"swrec/internal/model"
)

// AppleseedOptions parameterize the Appleseed spreading-activation metric.
// Zero-value fields take the defaults the Appleseed paper evaluates with.
type AppleseedOptions struct {
	// Injection is the initial energy in0 pumped into the source node.
	// Default 200.
	Injection float64
	// SpreadingFactor d ∈ (0,1) is the share of incoming energy a node
	// passes on to its trusted successors; the node keeps (1-d) as rank.
	// Low d concentrates trust near the source, high d spreads it deep
	// into the network. Default 0.85.
	SpreadingFactor float64
	// Threshold Tc is the convergence accuracy: iteration stops when no
	// node's accumulated rank changed by more than Tc in one pass.
	// Default 0.05.
	Threshold float64
	// MaxNodes is the expansion range R: once this many distinct peers
	// have been discovered, no further nodes are added (edges to
	// undiscovered agents are dropped, energy re-normalizes over the
	// remaining ones). This is the "predefined range" that keeps
	// neighborhood detection scalable (§3.2) — part of the metric, not a
	// switch: a caller that wants the whole community in range states a
	// bound at least its size. Default DefaultMaxNodes.
	MaxNodes int
	// MaxIterations is a safety stop. Default 200.
	MaxIterations int
	// NormExponent q applies nonlinear weight normalization: an edge's
	// share is w^q / Σ w'^q. q=1 is linear; q>1 favors highly trusted
	// successors, the "more fine-grained analysis" knob. Default 1.
	NormExponent float64
	// NoBackprop disables the virtual backward edges to the source that
	// Appleseed adds for every discovered node. Backward propagation
	// returns a share of energy to the source, penalizing rank hoarding
	// in remote cliques; disabling it is only useful for ablation (E4).
	NoBackprop bool
	// RespectDistrust removes peers the *source* explicitly distrusts
	// (negative direct statement) from the final neighborhood. Distrusted
	// edges never propagate energy in any case. Default false.
	RespectDistrust bool
	// DistrustPenalty γ ∈ [0,1] applies graded distrust after
	// convergence: for every negative statement x → y among explored
	// peers, y's rank is demoted multiplicatively by
	//
	//	rank(y) *= 1 - γ · normRank(x) · |t_x(y)|
	//
	// where normRank is the distruster's own rank relative to the
	// maximum (the source counts as 1). Distrust thus carries exactly as
	// much weight as the community accords the distruster — the graded
	// treatment [12] discusses, generalizing the boolean RespectDistrust.
	// 0 (default) disables it.
	DistrustPenalty float64
}

// DefaultMaxNodes is the expansion range an Appleseed walk explores when
// AppleseedOptions.MaxNodes is left zero, chosen by the E12 sweep
// (EXPERIMENTS.md).
const DefaultMaxNodes = 400

// WithDefaults fills zero fields with the standard parameters. The walk
// runs on its result and a checkpoint signs it, so what a zero field
// means is decided here only.
func (o AppleseedOptions) WithDefaults() AppleseedOptions {
	if o.Injection == 0 {
		o.Injection = 200
	}
	if o.SpreadingFactor == 0 {
		o.SpreadingFactor = 0.85
	}
	if o.Threshold == 0 {
		o.Threshold = 0.05
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.NormExponent == 0 {
		o.NormExponent = 1
	}
	return o
}

// validate rejects parameters outside their meaningful domains.
func (o AppleseedOptions) validate() error {
	if o.Injection <= 0 {
		return fmt.Errorf("trust: injection must be positive, got %v", o.Injection)
	}
	if o.SpreadingFactor <= 0 || o.SpreadingFactor >= 1 {
		return fmt.Errorf("trust: spreading factor must be in (0,1), got %v", o.SpreadingFactor)
	}
	if o.Threshold <= 0 {
		return fmt.Errorf("trust: threshold must be positive, got %v", o.Threshold)
	}
	if o.MaxNodes < 1 {
		return fmt.Errorf("trust: max nodes must be positive, got %d", o.MaxNodes)
	}
	if o.NormExponent <= 0 {
		return fmt.Errorf("trust: norm exponent must be positive, got %v", o.NormExponent)
	}
	if o.DistrustPenalty < 0 || o.DistrustPenalty > 1 {
		return fmt.Errorf("trust: distrust penalty must be in [0,1], got %v", o.DistrustPenalty)
	}
	return nil
}

// Appleseed computes the trust neighborhood of the agent with ordinal
// source over a community's adjacency, using the spreading-activation
// model of [12]:
//
//	in_{new}(y) += d · in(x) · w(x,y)^q / Σ_z w(x,z)^q
//	rank(x)    += (1-d) · in(x)
//
// with a virtual edge (y → source, weight 1) added for every node upon
// discovery (backward propagation), iterated until every node's rank moves
// by less than Threshold. The source itself accumulates no rank and never
// appears in the result. ctx is checked at every pass boundary, so a
// caller's deadline interrupts a long run within one pass; Appleseed then
// returns ctx.Err().
//
// Only positive trust statements propagate energy: distrust must not make
// its target's *successors* trustworthy. With RespectDistrust set, peers
// directly distrusted by the source are additionally removed from the
// result.
//
// It is the walk core.Recommender runs for every uncached request. Edges
// come from the agents' trust rows, state lives in pooled node-indexed
// arrays, and the only allocations are the result; discovery order,
// per-node edge order (backward edge first) and float summation order
// are those of the URI-keyed reference walk the tests keep
// (oracle_test.go), so the ranks are bit-identical to it. source must lie in [0, adj.NumAgents()). The
// ranks are built in buf's array when it is large enough — a caller that
// drops the neighborhood after use (core's stages 1-3) recycles it; pass
// nil otherwise.
func Appleseed(ctx context.Context, adj *model.Adjacency, source int32, opt AppleseedOptions, buf []Rank) (*Neighborhood, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return appleseed(ctx, adj, source, opt, buf)
}

// appleseed is Appleseed after option defaulting and validation. It is a
// function of its own on measurement: folded into Appleseed, the same
// walk — not an instruction of it changed — ran a frame shallower and
// cold-read lost a reproducible 10 % in spread's fetch-check loop.
func appleseed(ctx context.Context, adj *model.Adjacency, source int32, opt AppleseedOptions, buf []Rank) (*Neighborhood, error) {
	// The source plus at most MaxNodes discovered peers ever become nodes.
	nodes := adj.NumAgents()
	if opt.MaxNodes < nodes {
		nodes = opt.MaxNodes + 1
	}
	w := getWalk(adj.NumAgents(), nodes)
	defer w.release()

	iterations, err := w.spread(ctx, adj, source, opt)
	if err != nil {
		return nil, err
	}
	if opt.DistrustPenalty > 0 {
		w.penalize(opt.DistrustPenalty)
	}
	if opt.RespectDistrust {
		// Peers the source explicitly distrusts leave the result: a zero
		// rank is what the collection pass drops.
		for _, e := range adj.Trust(source) {
			if i := w.node[e.Ord]; e.Val < 0 && i > 0 {
				w.rank[i-1] = 0
			}
		}
	}

	n := 0
	for _, r := range w.rank[1:w.nodes] {
		if r > 0 {
			n++
		}
	}
	nb := &Neighborhood{Source: adj.Agent(source).ID, Iterations: iterations, Explored: w.nFetched}
	nb.Ranks = buf[:0]
	if cap(buf) < n {
		nb.Ranks = make([]Rank, 0, n)
	}
	for i, r := range w.rank[1:w.nodes] {
		if r > 0 {
			nb.Ranks = append(nb.Ranks, NewRank(adj.Agent(w.ord[i+1]), r))
		}
	}
	sortRanks(nb.Ranks)
	return nb, nil
}

// walk is the pooled state of one Appleseed computation. Agents
// become nodes in discovery order — node 0 is the source — and the
// per-node arrays are indexed by node, so a pass streams through them.
// They are sized by the expansion range, and the edge arena by what the
// walk discovered; node, which maps an agent ordinal to its node, is the
// only table sized by the community. Everything a computation reads
// before writing is zero between computations (release re-zeroes exactly
// the discovered entries), so a pooled walk starts in O(1) whatever the
// community size.
type walk struct {
	node []int32 // by agent ordinal: node index + 1; 0 = not discovered
	ord  []int32 // by node: the agent's ordinal
	// By node: energy received this pass, energy accumulating for the
	// next, trust rank so far, the normalization total over the node's
	// out-edges (fixed when it is fetched), and this pass's energy per
	// unit of edge weight.
	in, inNew, rank, total, share []float64
	fetched                       []bool // by node: out-edges expanded
	nodes                         int    // discovered so far
	// fetchSeq lists the nodes in the order they were fetched — first
	// spread energy — which is the order graded distrust is applied in;
	// rows[k] is node fetchSeq[k]'s trust row.
	fetchSeq []int32
	rows     []model.Row
	nFetched int
	// arena holds the out-edges of the fetched nodes, flattened in node
	// order with each node's virtual backward edge first. Edges MaxNodes
	// refused are left out. One sweep over it spreads a whole pass's
	// energy in exactly the order the reference walk's nested loops do.
	arena []walkEdge
	last  int32 // highest node in the arena; -1 when empty
	stale bool  // a node below last was fetched: rebuild before use
}

// walkEdge is one arena edge: source node, target node and weight
// Val^NormExponent.
type walkEdge struct {
	src, dst int32
	weight   float64
}

var walkPool sync.Pool

// getWalk returns a zeroed walk covering agents agent ordinals and up to
// nodes discovered nodes.
func getWalk(agents, nodes int) *walk {
	if w, ok := walkPool.Get().(*walk); ok && len(w.node) >= agents && len(w.ord) >= nodes {
		return w
	}
	return &walk{
		node:     make([]int32, agents),
		ord:      make([]int32, nodes),
		in:       make([]float64, nodes),
		inNew:    make([]float64, nodes),
		rank:     make([]float64, nodes),
		total:    make([]float64, nodes),
		share:    make([]float64, nodes),
		fetched:  make([]bool, nodes),
		fetchSeq: make([]int32, nodes),
		rows:     make([]model.Row, nodes),
	}
}

// release re-zeroes the entries the computation touched and returns the
// walk to the pool.
func (w *walk) release() {
	for _, x := range w.ord[:w.nodes] {
		w.node[x] = 0
	}
	clear(w.in[:w.nodes])
	clear(w.inNew[:w.nodes])
	clear(w.rank[:w.nodes])
	clear(w.fetched[:w.nodes])
	clear(w.rows[:w.nFetched]) // a pooled walk pins no community
	w.nodes, w.nFetched, w.arena, w.stale = 0, 0, w.arena[:0], false
	walkPool.Put(w)
}

// spread runs the spreading-activation passes from src until no rank
// moves by Threshold or more, and returns the pass count. opt must be
// defaulted and validated.
//
// A pass is the reference walk's node loop split in three. First every live
// node about to spread energy for the first time is fetched, in node
// order — the only step that discovers nodes or grows the arena. Then
// every live node, in node order, banks its rank and fixes its share, and
// one sweep over the edge arena delivers the energy (see pass). A fetch
// reads nothing the banking writes, so hoisting the fetches out of the
// node loop changes no discovery order and no sum.
func (w *walk) spread(ctx context.Context, t *model.Adjacency, src int32, opt AppleseedOptions) (int, error) {
	w.ord[0] = src
	w.node[src] = 1
	w.nodes = 1
	w.last = -1
	w.in[0] = opt.Injection

	iterations := 0
	for ; iterations < opt.MaxIterations; iterations++ {
		if err := ctx.Err(); err != nil {
			return iterations, err
		}
		// Snapshot length: nodes discovered during this pass only start
		// receiving energy now and are processed next pass.
		live := w.nodes
		// The nodes this pass fetches, and their rows, first: the record
		// reads are independent, so they overlap instead of each stalling
		// a fetch. A fetch only discovers nodes past live, so selecting
		// them all up front changes nothing. The byte test must go first:
		// with the float test leading, this loop's speed depends on where
		// the linker places spread.
		first := w.nFetched
		for i := 0; i < live; i++ {
			if !w.fetched[i] && w.in[i] != 0 {
				w.fetched[i] = true
				w.fetchSeq[w.nFetched] = int32(i)
				w.rows[w.nFetched] = t.Trust(w.ord[i])
				w.nFetched++
			}
		}
		for k := first; k < w.nFetched; k++ {
			w.fetch(w.fetchSeq[k], w.rows[k], opt)
		}
		if w.stale {
			w.rebuild(t, opt)
		}
		if maxDelta := w.pass(live, opt.SpreadingFactor); maxDelta < opt.Threshold && iterations > 0 {
			break
		}
	}
	return iterations, nil
}

// pass banks and spreads one pass's energy over the first live nodes and
// returns the largest rank gain. Every live node, in node order, banks
// its rank and fixes its share — the energy it hands on per unit of edge
// weight, d·in/total. Then one sweep over the edge arena delivers
// share·weight along every edge. A node's incoming sums therefore
// accumulate in the same (source node, edge) order as the reference walk's;
// a node with nothing to spread has share 0 and adds +0, which leaves a
// non-negative sum's bits unchanged.
//
//swrec:hotpath
func (w *walk) pass(live int, d float64) float64 {
	rank, total, share := w.rank, w.total, w.share
	in, inNew := w.in, w.inNew
	maxDelta := 0.0
	for i := 0; i < live; i++ {
		energy := in[i]
		if energy == 0 {
			share[i] = 0
			continue
		}
		in[i] = 0
		if i != 0 { // the source hoards no rank
			rank[i] += float64((1 - d) * energy)
			if delta := (1 - d) * energy; delta > maxDelta {
				maxDelta = delta
			}
		}
		if total[i] == 0 {
			// Dead end without backprop: energy dissipates, exactly
			// like rank sinks in spreading activation models.
			share[i] = 0
			continue
		}
		share[i] = d * energy / total[i]
	}
	for _, e := range w.arena {
		inNew[e.dst] += float64(share[e.src] * e.weight)
	}
	// Every live node's in is zero again and inNew holds next pass's
	// energy: in += inNew, inNew = 0 is a swap.
	w.in, w.inNew = inNew, in
	return maxDelta
}

// fetch expands node i, whose trust row is row, the first time it
// spreads energy: its positively trusted peers are discovered (within
// MaxNodes), its normalization total — backward edge first, then the
// statements in row order — is fixed, and its edges join the arena.
func (w *walk) fetch(i int32, row model.Row, opt AppleseedOptions) {
	// Nodes are fetched in node order unless one was discovered a pass
	// before any energy reached it (an underflow to zero); the arena is
	// then put back in node order before its next use.
	inOrder := i > w.last && !w.stale
	if inOrder {
		w.last = i
	} else {
		w.stale = true
	}
	var total float64
	if i != 0 && !opt.NoBackprop {
		total = 1
		if inOrder {
			w.arena = append(w.arena, walkEdge{i, 0, 1})
		}
	}
	for _, e := range row {
		if e.Val <= 0 {
			break // positives are a prefix of the row
		}
		y := e.Ord
		if w.node[y] == 0 {
			if w.nodes > opt.MaxNodes {
				continue
			}
			w.ord[w.nodes] = y
			w.nodes++
			w.node[y] = int32(w.nodes)
		}
		wt := edgeWeight(e.Val, opt)
		total += wt
		if inOrder {
			w.arena = append(w.arena, walkEdge{i, w.node[y] - 1, wt})
		}
	}
	w.total[i] = total
}

// edgeWeight is a positive statement's share weight, Val^NormExponent.
func edgeWeight(v float64, opt AppleseedOptions) float64 {
	if opt.NormExponent != 1 {
		return math.Pow(v, opt.NormExponent)
	}
	return v
}

// rebuild lays the arena out again in node order after an out-of-order
// fetch. An edge belongs to it iff its target was discovered: MaxNodes
// refuses a target for good, so what fetch left out stays undiscovered.
func (w *walk) rebuild(t *model.Adjacency, opt AppleseedOptions) {
	w.arena, w.stale = w.arena[:0], false
	for i := int32(0); int(i) < w.nodes; i++ {
		if !w.fetched[i] {
			continue
		}
		w.last = i
		if i != 0 && !opt.NoBackprop {
			w.arena = append(w.arena, walkEdge{i, 0, 1})
		}
		for _, e := range t.Trust(w.ord[i]) {
			if e.Val <= 0 {
				break
			}
			if j := w.node[e.Ord]; j != 0 {
				w.arena = append(w.arena, walkEdge{i, j - 1, edgeWeight(e.Val, opt)})
			}
		}
	}
}

// penalize applies graded distrust after convergence: every negative
// statement x → y among explored agents demotes y's rank by
// 1 - γ · normRank(x) · |t_x(y)|, in the order the distrusters were
// fetched (a distruster demoted earlier weighs in with its demoted rank).
func (w *walk) penalize(gamma float64) {
	maxRank := 0.0
	for _, r := range w.rank[1:w.nodes] {
		if r > maxRank {
			maxRank = r
		}
	}
	for k, i := range w.fetchSeq[:w.nFetched] {
		for _, e := range w.rows[k] {
			j := w.node[e.Ord] - 1
			if e.Val >= 0 || j <= 0 {
				continue // not distrust, never positively reached, or the source itself
			}
			normRank := 1.0 // the source's word counts fully
			if i != 0 {
				if maxRank == 0 {
					continue
				}
				normRank = w.rank[i] / maxRank
			}
			factor := 1 - float64(gamma*normRank*-e.Val)
			if factor < 0 {
				factor = 0
			}
			w.rank[j] *= factor
		}
	}
}
