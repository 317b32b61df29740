package trust

// The reference implementations the production walks are pinned to: the
// URI-generic Appleseed, Advogato, PathTrust and one-hop widening this
// package ran before every metric moved onto the trust CSR, over an
// interface that exposes nothing but "whose statements can I fetch",
// with the string interner and the slice-of-slices Dinic solver they were
// written against. Their answer names peers by URI (uriNeighborhood),
// sorted by the comparator. They are oracles, not yardsticks: the
// differential tests name a production answer through the community
// (nameIn) and require the same peers, in the same order, with == ranks.

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"testing"

	"swrec/internal/model"
)

// Network exposes the partial trust graph an oracle walk may explore.
// Statements carry values in [-1, +1]; negative values are explicit
// distrust, which the metrics must not confuse with absence of trust
// (§3.1, Marsh [8]).
type Network interface {
	// Peers returns the trust statements issued by a. The result may be
	// empty for unknown or silent agents.
	Peers(a model.AgentID) []model.TrustStatement
}

// sizeHinter is the optional Network capability of bounded graphs: the
// number of agents a full exploration could possibly discover.
type sizeHinter interface {
	NumAgents() int
}

// plainNet serves a community's statements by URI, the way a partially
// crawled, non-community view would. It keeps the size hint.
type plainNet struct{ c *model.Community }

func (n plainNet) Peers(a model.AgentID) []model.TrustStatement {
	ag := n.c.Agent(a)
	if ag == nil {
		return nil
	}
	return n.c.TrustStatements(ag)
}

func (n plainNet) NumAgents() int { return n.c.NumAgents() }

// uriRank and uriNeighborhood are a rank and a neighborhood named by
// URI: what the oracles compute, and what nameIn resolves a production
// answer to, so that the two compare peer by peer.
type uriRank struct {
	Agent model.AgentID
	Trust float64
}

type uriNeighborhood struct {
	Source     model.AgentID
	Ranks      []uriRank
	Iterations int
	Explored   int
}

// nameIn resolves nb's source and peers through adj's symbol table.
func nameIn(adj *model.Adjacency, nb *Neighborhood) *uriNeighborhood {
	sym := adj.Community().Symbols()
	out := &uriNeighborhood{Ranks: make([]uriRank, len(nb.Ranks)), Iterations: nb.Iterations, Explored: nb.Explored}
	out.Source, _ = sym.AgentID(nb.Source)
	for i, r := range nb.Ranks {
		out.Ranks[i].Agent, _ = sym.AgentID(r.Ord())
		out.Ranks[i].Trust = r.Trust
	}
	return out
}

// RankOf returns the trust rank of peer and whether it is in range.
func (nb *uriNeighborhood) RankOf(peer model.AgentID) (float64, bool) {
	for _, r := range nb.Ranks {
		if r.Agent == peer {
			return r.Trust, true
		}
	}
	return 0, false
}

// Contains reports whether peer made it into the neighborhood.
func (nb *uriNeighborhood) Contains(peer model.AgentID) bool {
	_, ok := nb.RankOf(peer)
	return ok
}

// sortURIRanks puts ranks in peer order by the comparator: descending
// trust, ties by ascending URI.
func sortURIRanks(rs []uriRank) {
	slices.SortFunc(rs, func(a, b uriRank) int {
		return cmp.Or(cmp.Compare(b.Trust, a.Trust), cmp.Compare(a.Agent, b.Agent))
	})
}

// mapNet is a literal trust graph.
type mapNet map[model.AgentID][]model.TrustStatement

func (m mapNet) Peers(a model.AgentID) []model.TrustStatement { return m[a] }

// Interner maps arbitrary string identifiers to dense node indices.
// The zero value is ready to use.
type Interner struct {
	ids   map[string]int
	names []string
}

// Reserve pre-sizes the table for n identifiers, avoiding growth
// reallocations when the caller knows the graph bound up front. A no-op
// once interning has started.
func (in *Interner) Reserve(n int) {
	if in.ids == nil && n > 0 {
		in.ids = make(map[string]int, n)
		in.names = make([]string, 0, n)
	}
}

// Intern returns the node index for name, assigning the next free index on
// first sight.
func (in *Interner) Intern(name string) int {
	if in.ids == nil {
		in.ids = make(map[string]int)
	}
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := len(in.names)
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// Lookup returns the node index of name without assigning one.
func (in *Interner) Lookup(name string) (int, bool) {
	id, ok := in.ids[name]
	return id, ok
}

// Name returns the string identifier of node id.
func (in *Interner) Name(id int) string {
	if id < 0 || id >= len(in.names) {
		return ""
	}
	return in.names[id]
}

// Len returns the number of interned identifiers.
func (in *Interner) Len() int { return len(in.names) }

func TestInterner(t *testing.T) {
	var in Interner
	a := in.Intern("alice")
	b := in.Intern("bob")
	if a == b {
		t.Fatal("distinct names got same index")
	}
	if got := in.Intern("alice"); got != a {
		t.Fatal("re-interning changed index")
	}
	if got, ok := in.Lookup("bob"); !ok || got != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := in.Lookup("carol"); ok {
		t.Fatal("Lookup invented an index")
	}
	if in.Name(a) != "alice" || in.Name(99) != "" {
		t.Fatal("Name mapping broken")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

// The solver below is the slice-of-slices Dinic the oracle Advogato was
// written against; flowNet (maxflow.go) must match it arc for arc.

// oracleFlowEdge is one directed edge of the residual network. Edges are stored
// in one flat arena; e and e^1 are mutual residuals.
type oracleFlowEdge struct {
	to  int
	cap int
}

// oracleFlowNetwork is a residual network under construction. Node indices are
// dense ints managed by the caller.
type oracleFlowNetwork struct {
	edges []oracleFlowEdge
	head  [][]int // per node: indices into edges
}

// newOracleFlowNetwork creates a network with capacity for n nodes; it grows on
// demand.
func newOracleFlowNetwork(n int) *oracleFlowNetwork {
	return &oracleFlowNetwork{head: make([][]int, n)}
}

// ensure grows the head table to cover node v.
func (f *oracleFlowNetwork) ensure(v int) {
	for len(f.head) <= v {
		f.head = append(f.head, nil)
	}
}

// NumNodes returns the node index space size.
func (f *oracleFlowNetwork) NumNodes() int { return len(f.head) }

// AddArc inserts a directed arc with the given capacity (and an implicit
// zero-capacity residual). Negative capacities are clamped to zero.
func (f *oracleFlowNetwork) AddArc(from, to, capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	f.ensure(from)
	f.ensure(to)
	f.head[from] = append(f.head[from], len(f.edges))
	f.edges = append(f.edges, oracleFlowEdge{to: to, cap: capacity})
	f.head[to] = append(f.head[to], len(f.edges))
	f.edges = append(f.edges, oracleFlowEdge{to: from, cap: 0})
}

// MaxFlow runs Dinic's algorithm from src to dst and returns the max-flow
// value. The residual state is left in place so callers can inspect which
// arcs carried flow via Flow.
func (f *oracleFlowNetwork) MaxFlow(src, dst int) int {
	if src < 0 || dst < 0 || src >= len(f.head) || dst >= len(f.head) || src == dst {
		return 0
	}
	total := 0
	level := make([]int, len(f.head))
	iter := make([]int, len(f.head))
	for f.bfsLevel(src, dst, level) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := f.dfsAugment(src, dst, int(^uint(0)>>1), level, iter)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

// bfsLevel builds the level graph; returns false when dst is unreachable.
func (f *oracleFlowNetwork) bfsLevel(src, dst int, level []int) bool {
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ei := range f.head[v] {
			e := f.edges[ei]
			if e.cap > 0 && level[e.to] < 0 {
				level[e.to] = level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return level[dst] >= 0
}

// dfsAugment pushes one blocking-flow augmenting path.
func (f *oracleFlowNetwork) dfsAugment(v, dst, limit int, level, iter []int) int {
	if v == dst {
		return limit
	}
	for ; iter[v] < len(f.head[v]); iter[v]++ {
		ei := f.head[v][iter[v]]
		e := &f.edges[ei]
		if e.cap <= 0 || level[e.to] != level[v]+1 {
			continue
		}
		d := limit
		if e.cap < d {
			d = e.cap
		}
		pushed := f.dfsAugment(e.to, dst, d, level, iter)
		if pushed > 0 {
			e.cap -= pushed
			f.edges[ei^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// Flow returns the units of flow that crossed the k-th inserted arc
// (0-based insertion order), after MaxFlow has run.
func (f *oracleFlowNetwork) Flow(arc int) int {
	ri := 2*arc + 1
	if ri < 0 || ri >= len(f.edges) {
		return 0
	}
	return f.edges[ri].cap // residual capacity of the reverse edge == flow
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

// oracleAppleseed is the generic Appleseed walk over a Network: the
// spreading-activation update of [12] with nodes in a slab indexed by
// discovery order and agents interned by URI.
func oracleAppleseed(ctx context.Context, net Network, source model.AgentID, opt AppleseedOptions) (*uriNeighborhood, error) {
	opt = opt.WithDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
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
	var sym Interner
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
	nb := &uriNeighborhood{Source: source, Iterations: iterations, Explored: explored}
	nb.Ranks = make([]uriRank, 0, len(nodes)-1)
	for i := 1; i < len(nodes); i++ {
		if nodes[i].rank <= 0 || (distrusted != nil && distrusted[i]) {
			continue
		}
		nb.Ranks = append(nb.Ranks, uriRank{nodes[i].id, nodes[i].rank})
	}
	sortURIRanks(nb.Ranks)
	return nb, nil
}

// oracleAdvogato is the generic Advogato over a Network and a per-call
// flow network.
func oracleAdvogato(net Network, source model.AgentID, opt AdvogatoOptions) (*uriNeighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	horizon := len(opt.CapacityProfile)

	// Level-bounded BFS, fetching trust statements as we go.
	var in Interner
	src := in.Intern(string(source))
	dist := []int{0}
	type edge struct{ from, to int }
	var certEdges []edge
	queue := []int{src}
	explored := 0
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] >= horizon {
			continue // beyond the profile: do not expand further
		}
		explored++
		for _, st := range net.Peers(model.AgentID(in.Name(x))) {
			if st.Value <= opt.MinWeight || string(st.Dst) == in.Name(x) {
				continue
			}
			before := in.Len()
			y := in.Intern(string(st.Dst))
			if in.Len() > before {
				dist = append(dist, dist[x]+1)
				queue = append(queue, y)
			}
			certEdges = append(certEdges, edge{from: x, to: y})
		}
	}

	// Build the node-split flow network. Agent i maps to in-node 2i and
	// out-node 2i+1; the supersink sits past all split nodes.
	n := in.Len()
	sink := 2 * n
	fn := newOracleFlowNetwork(2*n + 1)
	unitArc := make([]int, n) // arc index of each agent's x⁻→sink edge
	arcs := 0
	addArc := func(from, to, c int) int {
		fn.AddArc(from, to, c)
		arcs++
		return arcs - 1
	}
	capOf := func(i int) int {
		if dist[i] < len(opt.CapacityProfile) {
			return opt.CapacityProfile[dist[i]]
		}
		return 1
	}
	for i := 0; i < n; i++ {
		addArc(2*i, 2*i+1, capOf(i)-1)
		unitArc[i] = addArc(2*i, sink, 1)
	}
	for _, e := range certEdges {
		addArc(2*e.from+1, 2*e.to, infiniteCap)
	}

	fn.MaxFlow(2*src, sink)

	nb := &uriNeighborhood{Source: source, Iterations: horizon, Explored: explored}
	for i := 1; i < n; i++ { // skip the source itself
		if fn.Flow(unitArc[i]) > 0 {
			nb.Ranks = append(nb.Ranks, uriRank{model.AgentID(in.Name(i)), 1})
		}
	}
	sortURIRanks(nb.Ranks)
	return nb, nil
}

// oraclePtItem is one frontier entry of the best-path search. The agent is
// carried both as ID (for the Network fetch) and as its discovery-order
// node index (for the dense best/done tables).
type oraclePtItem struct {
	agent    model.AgentID
	node     int32
	strength float64
	hops     int32
}

// oraclePtHeap is a max-heap on path strength, so peers are finalized in
// best-first order (Dijkstra over the (max, ×) semiring).
type oraclePtHeap []oraclePtItem

func (h oraclePtHeap) Len() int            { return len(h) }
func (h oraclePtHeap) Less(i, j int) bool  { return h[i].strength > h[j].strength }
func (h oraclePtHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oraclePtHeap) Push(x interface{}) { *h = append(*h, x.(oraclePtItem)) }
func (h *oraclePtHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// oraclePathTrust is the generic best-chain search over a Network on
// container/heap.
func oraclePathTrust(net Network, source model.AgentID, opt PathTrustOptions) (*uriNeighborhood, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}

	var sym Interner
	if sh, ok := net.(sizeHinter); ok {
		sym.Reserve(sh.NumAgents())
	}
	sym.Intern(string(source))
	// best[node] is the strongest chain found so far; 0 doubles as "not
	// reached", which is unambiguous because only positive trust values
	// multiply into a strength.
	best := []float64{1}
	done := []bool{false}
	node := func(id model.AgentID) int32 {
		i := sym.Intern(string(id))
		if i == len(best) {
			best = append(best, 0)
			done = append(done, false)
		}
		return int32(i)
	}

	h := &oraclePtHeap{{agent: source, node: 0, strength: 1, hops: 0}}
	explored := 0
	maxHops := int32(0)

	for h.Len() > 0 {
		it := heap.Pop(h).(oraclePtItem)
		if done[it.node] || it.strength < best[it.node] {
			continue
		}
		done[it.node] = true
		if it.hops > maxHops {
			maxHops = it.hops
		}
		if int(it.hops) >= opt.Horizon {
			continue
		}
		explored++
		for _, st := range net.Peers(it.agent) {
			if st.Value <= 0 {
				continue
			}
			s := it.strength * st.Value
			if s < opt.MinTrust {
				continue
			}
			ni := node(st.Dst)
			if done[ni] {
				continue
			}
			if prev := best[ni]; prev == 0 || s > prev {
				best[ni] = s
				heap.Push(h, oraclePtItem{agent: st.Dst, node: ni, strength: s, hops: it.hops + 1})
			}
		}
	}

	nb := &uriNeighborhood{Source: source, Iterations: int(maxHops), Explored: explored}
	for i := 1; i < len(best); i++ {
		if best[i] == 0 {
			continue // interned but pruned below MinTrust
		}
		nb.Ranks = append(nb.Ranks, uriRank{model.AgentID(sym.Name(i)), best[i]})
	}
	sortURIRanks(nb.Ranks)
	return nb, nil
}

// widenGeneric is WidenOneHop over a plain Network: discovered agents are
// interned to dense indices, membership and contribution live in flat
// slices over the intern space.
func widenGeneric(net Network, nb *uriNeighborhood, decay float64) *uriNeighborhood {
	var sym Interner
	sym.Intern(string(nb.Source))
	for _, r := range nb.Ranks {
		sym.Intern(string(r.Agent))
	}
	// Indices below inCount are the source and current members; every
	// index at or past it is a widened candidate.
	inCount := sym.Len()
	maxRank := 0.0
	for _, r := range nb.Ranks {
		if r.Trust > maxRank {
			maxRank = r.Trust
		}
	}
	if maxRank <= 0 {
		maxRank = 1
	}

	var added []float64 // added[i-inCount] is candidate i's best contribution
	explored := 0
	contribute := func(from model.AgentID, rank float64) {
		explored++
		for _, st := range net.Peers(from) {
			if st.Value <= 0 {
				continue
			}
			i := sym.Intern(string(st.Dst))
			if i < inCount {
				continue
			}
			j := i - inCount
			if j == len(added) {
				added = append(added, 0)
			}
			if r := decay * rank * st.Value; r > added[j] {
				added[j] = r
			}
		}
	}
	contribute(nb.Source, maxRank)
	for _, r := range nb.Ranks {
		contribute(r.Agent, r.Trust)
	}

	out := &uriNeighborhood{
		Source:     nb.Source,
		Iterations: nb.Iterations,
		Explored:   nb.Explored + explored,
	}
	out.Ranks = make([]uriRank, len(nb.Ranks), len(nb.Ranks)+len(added))
	copy(out.Ranks, nb.Ranks)
	for j, r := range added {
		if r > 0 {
			out.Ranks = append(out.Ranks, uriRank{model.AgentID(sym.Name(inCount + j)), r})
		}
	}
	sortURIRanks(out.Ranks)
	return out
}
