package trust

import "math"

// Dinic's max-flow over integer capacities. The Advogato trust metric
// (Levien & Aiken 1998) reduces group trust to a single-source max-flow on
// a transformed trust graph, so the solver only needs integer capacities
// that fit an int32 and moderate sizes (a few hundred thousand arcs).

// flowEdge is one directed edge of the residual network. Edges are stored
// in one flat arena; e and e^1 are mutual residuals, so the tail of e is
// the head of e^1.
type flowEdge struct {
	to, cap int32
}

// flowNet is a residual network built arc by arc over dense node indices
// managed by the caller, then solved. Every array is kept across reset,
// so a pooled network solves without allocating.
type flowNet struct {
	nodes int
	edges []flowEdge
	// A node's edges are head[off[v]:off[v+1]], in insertion order —
	// Dinic tries them in that order, so which of several maximum flows it
	// finds is fixed by the order of the addArc calls. index lays them out
	// by counting once the arcs are in, instead of growing a list per node.
	off, head []int32
	stale     bool    // arcs or nodes changed since index ran
	level     []int32 // by node: BFS distance from the source this phase; -1 = unlabelled
	next      []int32 // by node: the first of its edges not yet exhausted this phase
	queue     []int32
	labelled  int // queue[:labelled] are the nodes level holds a label for
}

// reset empties the network and gives it n nodes; addArc grows it on
// demand.
func (f *flowNet) reset(n int) {
	f.nodes, f.edges, f.stale = n, f.edges[:0], true
}

// addArc inserts a directed arc with the given capacity (and an implicit
// zero-capacity residual) and returns its 0-based insertion index.
// Negative capacities are clamped to zero.
func (f *flowNet) addArc(from, to, capacity int) int {
	f.nodes, f.stale = max(f.nodes, from+1, to+1), true
	f.edges = append(f.edges, flowEdge{int32(to), int32(max(capacity, 0))}, flowEdge{int32(from), 0})
	return len(f.edges)/2 - 1
}

// index groups the edge indices by tail node, each node's in insertion
// order.
func (f *flowNet) index() {
	f.off = resize(f.off, f.nodes+1)
	clear(f.off)
	for e := range f.edges {
		f.off[f.edges[e^1].to+1]++
	}
	for v := 0; v < f.nodes; v++ {
		f.off[v+1] += f.off[v]
	}
	f.head = resize(f.head, len(f.edges))
	f.next = resize(f.next, f.nodes)
	copy(f.next, f.off)
	for e := range f.edges {
		v := f.edges[e^1].to
		f.head[f.next[v]] = int32(e)
		f.next[v]++
	}
	f.level = resize(f.level, f.nodes)
	for i := range f.level {
		f.level[i] = -1
	}
	f.queue, f.labelled = resize(f.queue, f.nodes), 0
	f.stale = false
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// maxFlow runs Dinic's algorithm from src to dst and returns the max-flow
// value. The residual state is left in place so callers can inspect which
// arcs carried flow via flow.
func (f *flowNet) maxFlow(src, dst int) int {
	if src < 0 || dst < 0 || src >= f.nodes || dst >= f.nodes || src == dst {
		return 0
	}
	if f.stale {
		f.index()
	}
	total := 0
	for f.bfsLevel(int32(src), int32(dst)) {
		copy(f.next, f.off)
		for {
			pushed := f.dfsAugment(int32(src), int32(dst), math.MaxInt32)
			if pushed == 0 {
				break
			}
			total += int(pushed)
		}
	}
	return total
}

// bfsLevel builds the level graph; returns false when dst is unreachable.
// It stops at dst's level: a node at or past it lies on no shortest
// augmenting path, so leaving it unlabelled only spares dfsAugment a
// descent that must fail — the flow found is the same, arc for arc.
func (f *flowNet) bfsLevel(src, dst int32) bool {
	for _, v := range f.queue[:f.labelled] {
		f.level[v] = -1
	}
	f.level[src] = 0
	f.queue[0] = src
	qt := 1
	for qh := 0; qh < qt; qh++ {
		v := f.queue[qh]
		if f.level[dst] >= 0 && f.level[v]+1 >= f.level[dst] {
			break
		}
		for _, ei := range f.head[f.off[v]:f.off[v+1]] {
			e := f.edges[ei]
			if e.cap > 0 && f.level[e.to] < 0 {
				f.level[e.to] = f.level[v] + 1
				f.queue[qt] = e.to
				qt++
			}
		}
	}
	f.labelled = qt
	return f.level[dst] >= 0
}

// dfsAugment pushes one blocking-flow augmenting path.
func (f *flowNet) dfsAugment(v, dst, limit int32) int32 {
	if v == dst {
		return limit
	}
	for ; f.next[v] < f.off[v+1]; f.next[v]++ {
		ei := f.head[f.next[v]]
		e := &f.edges[ei]
		if e.cap <= 0 || f.level[e.to] != f.level[v]+1 {
			continue
		}
		if pushed := f.dfsAugment(e.to, dst, min(limit, e.cap)); pushed > 0 {
			e.cap -= pushed
			f.edges[ei^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// flow returns the units of flow that crossed the k-th inserted arc
// (0-based insertion order), after maxFlow has run.
func (f *flowNet) flow(arc int) int {
	ri := 2*arc + 1
	if ri < 0 || ri >= len(f.edges) {
		return 0
	}
	return int(f.edges[ri].cap) // residual capacity of the reverse edge == flow
}
