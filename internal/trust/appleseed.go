package trust

import (
	"context"
	"fmt"
	"math"

	"swrec/internal/graph"
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

// WithDefaults fills zero fields with the standard parameters. The
// compiled walk and the generic walk both run on its result, and a
// checkpoint signs it, so what a zero field means is decided here only.
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

// appleseedNode is the mutable per-node state of one computation. Nodes
// live in one contiguous slab indexed by discovery order — pointer-free,
// so a 400-node computation costs a handful of slab growths instead of
// one allocation per node.
type appleseedNode struct {
	id    model.AgentID
	in    float64 // energy received this pass
	inNew float64 // energy accumulating for next pass
	rank  float64 // trust rank accumulated so far
	// succ holds the node's out-edges, built once at fetch time: the
	// virtual backward edge (if any) first, then the positive statements
	// as (target index, weight^q), with the normalization total.
	succ      []appleseedEdge
	succTotal float64
	fetched   bool // trust statements already pulled from the Network
}

type appleseedEdge struct {
	to int
	w  float64 // weight raised to NormExponent
}

// Appleseed computes the trust neighborhood of source over net using the
// spreading-activation model of [12]:
//
//	in_{new}(y) += d · in(x) · w(x,y)^q / Σ_z w(x,z)^q
//	rank(x)    += (1-d) · in(x)
//
// with a virtual edge (y → source, weight 1) added for every node upon
// discovery (backward propagation), iterated until every node's rank moves
// by less than Threshold. The source itself accumulates no rank and never
// appears in the result.
//
// Only positive trust statements propagate energy: distrust must not make
// its target's *successors* trustworthy. With RespectDistrust set, peers
// directly distrusted by the source are additionally removed from the
// result.
func Appleseed(net Network, source model.AgentID, opt AppleseedOptions) (*Neighborhood, error) {
	return AppleseedCtx(context.Background(), net, source, opt)
}

// AppleseedCtx is Appleseed with cancellation: the iteration loop checks
// ctx at every pass boundary, so a caller's deadline interrupts a long
// spreading-activation run within one pass rather than after
// MaxIterations. Returns ctx.Err() when cancelled.
func AppleseedCtx(ctx context.Context, net Network, source model.AgentID, opt AppleseedOptions) (*Neighborhood, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}

	// Community-backed networks carry a compiled adjacency: take the
	// ordinal walk. Unknown sources fall through to the generic path,
	// which yields the canonical empty neighborhood.
	if cn, ok := net.(communityNet); ok {
		if src := cn.adj.Community().Agent(source); src != nil {
			return appleseedCompiled(ctx, cn.adj, src.Ord(), opt, nil)
		}
	}

	// Pre-size the node slab and interner to the graph bound when the
	// network exposes one (community adapters do), capped by the
	// expansion range — growth reallocations dominate the metric's
	// allocation profile otherwise.
	hint := 256
	if sh, ok := net.(sizeHinter); ok {
		if n := sh.NumAgents() + 1; n > 0 {
			hint = n
		}
	}
	if opt.MaxNodes < hint {
		hint = opt.MaxNodes + 1
	}
	// sym interns agent URIs in discovery order, so an agent's interned
	// ordinal IS its node index — the only string-keyed structure of the
	// whole walk, touched once per discovery, never on the hot update loop.
	var sym graph.Interner
	sym.Reserve(hint)
	sym.Intern(string(source))
	nodes := make([]appleseedNode, 1, hint)
	nodes[0] = appleseedNode{id: source, in: opt.Injection}

	// discover returns the index for id, registering it the first time;
	// ok==false when MaxNodes forbids new nodes. Out-edges (including the
	// virtual backward edge) are attached lazily at fetch time — only
	// nodes that actually receive energy pay for an edge list.
	discover := func(id model.AgentID) (int, bool) {
		if i, ok := sym.Lookup(string(id)); ok {
			return i, true
		}
		if len(nodes) > opt.MaxNodes {
			return 0, false
		}
		i := sym.Intern(string(id))
		nodes = append(nodes, appleseedNode{id: id})
		return i, true
	}

	// fetch pulls x's trust statements from the network once and attaches
	// its out-edges in one pre-sized slice: the backward edge first (as
	// discover used to order it), then the positive statements. Negative
	// statements never propagate energy; they are recorded for the
	// optional post-convergence penalty.
	type negEdge struct {
		from int
		to   model.AgentID
		w    float64 // |t_x(y)|
	}
	var negEdges []negEdge
	explored := 0
	linearWeights := opt.NormExponent == 1
	fetch := func(xi int) {
		if nodes[xi].fetched {
			return
		}
		nodes[xi].fetched = true
		explored++
		stmts := net.Peers(nodes[xi].id)
		succ := make([]appleseedEdge, 0, len(stmts)+1)
		var total float64
		if xi != 0 && !opt.NoBackprop {
			succ = append(succ, appleseedEdge{to: 0, w: 1})
			total = 1
		}
		self := nodes[xi].id
		for _, st := range stmts {
			if st.Dst == self {
				continue
			}
			if st.Value <= 0 {
				if st.Value < 0 && opt.DistrustPenalty > 0 {
					negEdges = append(negEdges, negEdge{from: xi, to: st.Dst, w: -st.Value})
				}
				continue
			}
			yi, ok := discover(st.Dst) // may grow the slab; index access only below
			if !ok || yi == xi {
				continue
			}
			w := st.Value
			if !linearWeights {
				w = math.Pow(st.Value, opt.NormExponent)
			}
			succ = append(succ, appleseedEdge{to: yi, w: w})
			total += w
		}
		nodes[xi].succ = succ
		nodes[xi].succTotal = total
	}

	d := opt.SpreadingFactor
	iterations := 0
	for ; iterations < opt.MaxIterations; iterations++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		maxDelta := 0.0
		// Snapshot length: nodes discovered during this pass only start
		// receiving energy now and are processed next pass.
		live := len(nodes)
		for xi := 0; xi < live; xi++ {
			if nodes[xi].in == 0 {
				continue
			}
			fetch(xi) // may grow the slab: re-take the pointer after
			x := &nodes[xi]
			energy := x.in
			x.in = 0
			if xi != 0 { // the source hoards no rank
				x.rank += (1 - d) * energy
				if delta := (1 - d) * energy; delta > maxDelta {
					maxDelta = delta
				}
			}
			if x.succTotal == 0 {
				// Dead end without backprop: energy dissipates, exactly
				// like rank sinks in spreading activation models.
				continue
			}
			m := d * energy / x.succTotal
			for _, e := range x.succ {
				nodes[e.to].inNew += m * e.w
			}
		}
		for i := range nodes {
			nodes[i].in += nodes[i].inNew
			nodes[i].inNew = 0
		}
		if maxDelta < opt.Threshold && iterations > 0 {
			break
		}
	}

	// Graded distrust: demote each distrusted peer proportionally to the
	// distruster's own standing.
	if opt.DistrustPenalty > 0 && len(negEdges) > 0 {
		maxRank := 0.0
		for i := 1; i < len(nodes); i++ {
			if nodes[i].rank > maxRank {
				maxRank = nodes[i].rank
			}
		}
		for _, e := range negEdges {
			yi, ok := sym.Lookup(string(e.to))
			if !ok || yi == 0 {
				continue // never positively reached, or the source itself
			}
			normRank := 1.0 // the source's word counts fully
			if e.from != 0 {
				if maxRank == 0 {
					continue
				}
				normRank = nodes[e.from].rank / maxRank
			}
			factor := 1 - opt.DistrustPenalty*normRank*e.w
			if factor < 0 {
				factor = 0
			}
			nodes[yi].rank *= factor
		}
	}

	// Collect ranks; optionally drop peers the source explicitly
	// distrusts — a dense node-indexed flag vector, since every peer that
	// could appear in the result has an interned node index.
	var distrusted []bool
	if opt.RespectDistrust {
		distrusted = make([]bool, len(nodes))
		for _, st := range net.Peers(source) {
			if st.Value < 0 {
				if i, ok := sym.Lookup(string(st.Dst)); ok {
					distrusted[i] = true
				}
			}
		}
	}
	nb := &Neighborhood{Source: source, Iterations: iterations, Explored: explored}
	nb.Ranks = make([]Rank, 0, len(nodes)-1)
	for i := 1; i < len(nodes); i++ {
		if nodes[i].rank <= 0 || (distrusted != nil && distrusted[i]) {
			continue
		}
		nb.Ranks = append(nb.Ranks, Rank{Agent: nodes[i].id, Trust: nodes[i].rank})
	}
	sortRanks(nb.Ranks)
	return nb, nil
}
