package taxonomy

// PathTable holds, for every topic, its primary path and the Eq. 3 share
// coefficient of each node on it, flattened into two arenas indexed by
// one offset array. Both are pure functions of the tree's primary edges,
// so one table serves every profile generator over the taxonomy; it is
// built on first use and rebuilt after a structural change (Version).
type PathTable struct {
	version uint64
	off     []int32   // per topic: start of its path in nodes and coeff; len Len()+1
	nodes   []Topic   // concatenated primary paths, root first
	coeff   []float64 // per path node: its Eq. 3 coefficient, aligned with nodes
}

// At returns topic d's primary path (⊤ first, d last) and the Eq. 3
// coefficient of every node on it: an increment of share units at d
// contributes share·coeff[i] to path[i], and the coefficients of one path
// sum to 1. Both slices are shared and must not be modified.
func (p *PathTable) At(d Topic) (path []Topic, coeff []float64) {
	o, e := p.off[d], p.off[d+1]
	return p.nodes[o:e:e], p.coeff[o:e:e]
}

// PathTable returns the taxonomy's path table, building it when absent or
// stale. Safe for concurrent use as long as nothing mutates the taxonomy
// meanwhile: concurrent first callers wait for one build.
func (t *Taxonomy) PathTable() *PathTable {
	if p := t.paths.Load(); p != nil && p.version == t.version {
		return p
	}
	t.pathsMu.Lock()
	defer t.pathsMu.Unlock()
	if p := t.paths.Load(); p != nil && p.version == t.version {
		return p
	}
	p := t.buildPathTable()
	t.paths.Store(p)
	return p
}

// buildPathTable derives the table in two sweeps over the primary
// parents. The first counts every topic's primary children — sib(c)+1 for
// each child c of p is p's count — and every path's length, which sizes
// the arenas. A primary parent's ordinal is always below its child's, so
// in the second sweep each path is its parent's plus one node, copied from
// the arena. The coefficients are computed as Eq. 3 states them, per
// path from the descriptor up: factor_{i-1} = factor_i / (sib(p_i)+1)
// starting from 1 at the descriptor, each then divided by the path's
// factor sum — the same float operations in the same order as a per-topic
// derivation, so every value is bit-identical to it.
func (t *Taxonomy) buildPathTable() *PathTable {
	n := len(t.nodes)
	kids := make([]int32, n)
	off := make([]int32, n+1)
	off[1] = 1 // the root's path is itself
	for d := 1; d < n; d++ {
		p := t.nodes[d].parents[0]
		kids[p]++
		off[d+1] = off[d] + off[p+1] - off[p] + 1 // p < d, so p's span is final
	}
	total := off[n]
	p := &PathTable{
		version: t.version,
		off:     off,
		nodes:   make([]Topic, total),
		coeff:   make([]float64, total),
	}
	for d := 0; d < n; d++ {
		o, e := off[d], off[d+1]
		path, c := p.nodes[o:e], p.coeff[o:e]
		if d > 0 {
			par := t.nodes[d].parents[0]
			copy(path, p.nodes[off[par]:off[par+1]])
		}
		last := len(path) - 1
		path[last] = Topic(d)
		c[last] = 1
		sum, factor := 1.0, 1.0
		for i := last; i > 0; i-- {
			factor /= float64(kids[path[i-1]])
			c[i-1] = factor
			sum += factor
		}
		for i := range c {
			c[i] /= sum
		}
	}
	return p
}
