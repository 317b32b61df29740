// Package taxonomy implements the product classification taxonomy C of the
// paper's information model (§3.1): a rooted acyclic graph of topics with a
// single top element ⊤, arranged by a partial subset order similar to class
// hierarchies in object-oriented languages.
//
// Topics are identified by dense integer handles (Topic) for speed; every
// topic also carries a human-readable name and a path-like qualified name
// ("Books/Science/Mathematics/Pure/Algebra"). The package provides the
// primitives the taxonomy-based profile generator needs: parent/children
// access, sibling counts, root paths, depth, and leaf tests.
//
// While the paper allows a general DAG, its Eq. 3 propagation "supposes C
// tree-structured" for score assignment. We support multiple parents in the
// structure (AddEdge) but expose PrimaryPath, which follows each topic's
// first-added (primary) parent, matching the paper's simplification. All
// shape statistics used in experiment E8 are exported via Stats.
//
// The taxonomy owns the Eq. 3 propagation tables: PathTable holds every
// topic's primary path with its share coefficients, built in one pass the
// first time a profile generator asks and memoized on the taxonomy until
// the next Add or AddEdge. A taxonomy decoded from a checkpoint therefore
// derives them once, and they die with it.
package taxonomy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Topic is a dense handle into a Taxonomy. The root (top element ⊤) is
// always Topic 0.
type Topic int32

// Root is the top element ⊤ of every taxonomy: the most general topic with
// zero indegree (§3.1).
const Root Topic = 0

// None marks the absence of a topic (e.g. the parent of Root).
const None Topic = -1

var (
	// ErrUnknownTopic is returned when a handle or name does not resolve.
	ErrUnknownTopic = errors.New("taxonomy: unknown topic")
	// ErrCycle is returned when an edge insertion would create a cycle.
	ErrCycle = errors.New("taxonomy: edge would create a cycle")
	// ErrDuplicate is returned when a topic name is registered twice under
	// the same parent.
	ErrDuplicate = errors.New("taxonomy: duplicate topic")
)

// node is the internal representation of one topic.
type node struct {
	name     string  // leaf name, e.g. "Algebra"
	parents  []Topic // first entry is the primary parent
	children []Topic
}

// Taxonomy is the global classification scheme. It is not safe for
// concurrent mutation; concurrent reads are safe once construction is done.
type Taxonomy struct {
	nodes []node
	// qnames[d] is d's qualified name, the key byPath holds for it. A
	// name follows the primary parents only, so AddEdge changes none.
	qnames  []string
	byPath  map[string]Topic // qualified name -> topic
	version uint64           // bumped by every structural mutation
	// paths memoizes PathTable at one version; pathsMu serializes builds.
	paths   atomic.Pointer[PathTable]
	pathsMu sync.Mutex
}

// New creates a taxonomy containing only the top element, named rootName
// (the paper uses "Books" for the Amazon book taxonomy fragment).
func New(rootName string) *Taxonomy {
	t := &Taxonomy{
		nodes:  []node{{name: rootName, parents: nil}},
		qnames: []string{rootName},
		byPath: map[string]Topic{rootName: Root},
	}
	return t
}

// Len returns the number of topics including the root.
func (t *Taxonomy) Len() int { return len(t.nodes) }

// Version returns a counter that changes with every structural mutation
// (Add, AddEdge). Structures derived from the taxonomy — PathTable among
// them — key their memos on it to detect staleness.
func (t *Taxonomy) Version() uint64 { return t.version }

// Name returns the local (unqualified) name of a topic.
func (t *Taxonomy) Name(d Topic) string {
	if !t.valid(d) {
		return ""
	}
	return t.nodes[d].name
}

// QualifiedName returns the full path name from the root, joined by "/";
// "" for an invalid handle. The name is kept from the topic's Add, not
// rebuilt.
func (t *Taxonomy) QualifiedName(d Topic) string {
	if !t.valid(d) {
		return ""
	}
	return t.qnames[d]
}

// AppendQualifiedName appends QualifiedName(d) to buf — what a response
// encoder wants per topic. An invalid handle appends nothing.
func (t *Taxonomy) AppendQualifiedName(buf []byte, d Topic) []byte {
	if !t.valid(d) {
		return buf
	}
	return append(buf, t.qnames[d]...)
}

// valid reports whether d is a live handle.
func (t *Taxonomy) valid(d Topic) bool { return d >= 0 && int(d) < len(t.nodes) }

// Add registers a new topic under the given parent and returns its handle.
// The parent becomes the topic's primary parent. Sibling names must be
// unique so that qualified names identify topics.
func (t *Taxonomy) Add(parent Topic, name string) (Topic, error) {
	if !t.valid(parent) {
		return None, fmt.Errorf("%w: parent %d", ErrUnknownTopic, parent)
	}
	if name == "" || strings.Contains(name, "/") {
		return None, fmt.Errorf("taxonomy: invalid topic name %q", name)
	}
	qname := t.qnames[parent] + "/" + name
	if _, ok := t.byPath[qname]; ok {
		return None, fmt.Errorf("%w: %s", ErrDuplicate, qname)
	}
	d := Topic(len(t.nodes))
	t.nodes = append(t.nodes, node{name: name, parents: []Topic{parent}})
	t.nodes[parent].children = append(t.nodes[parent].children, d)
	t.qnames = append(t.qnames, qname)
	t.byPath[qname] = d
	t.version++
	return d, nil
}

// MustAdd is Add for construction code with static names; it panics on error.
func (t *Taxonomy) MustAdd(parent Topic, name string) Topic {
	d, err := t.Add(parent, name)
	if err != nil {
		panic(err)
	}
	return d
}

// AddPath ensures every topic along the "/"-separated path below the root
// exists, creating missing ones, and returns the final topic. The path must
// not include the root name.
func (t *Taxonomy) AddPath(path string) (Topic, error) {
	cur := Root
	for _, part := range strings.Split(path, "/") {
		if part == "" {
			return None, fmt.Errorf("taxonomy: empty path segment in %q", path)
		}
		next, ok := t.Child(cur, part)
		if !ok {
			var err error
			next, err = t.Add(cur, part)
			if err != nil {
				return None, err
			}
		}
		cur = next
	}
	return cur, nil
}

// AddEdge records an additional (secondary) parent for d, turning the tree
// into a DAG. Secondary parents participate in Ancestors but not in
// PrimaryPath. The edge is rejected if it would create a cycle.
func (t *Taxonomy) AddEdge(parent, d Topic) error {
	if !t.valid(parent) || !t.valid(d) {
		return ErrUnknownTopic
	}
	if d == Root {
		return fmt.Errorf("taxonomy: root cannot have a parent")
	}
	if t.reachable(d, parent) {
		return fmt.Errorf("%w: %s -> %s", ErrCycle, t.Name(parent), t.Name(d))
	}
	for _, p := range t.nodes[d].parents {
		if p == parent {
			return nil // idempotent
		}
	}
	t.nodes[d].parents = append(t.nodes[d].parents, parent)
	t.nodes[parent].children = append(t.nodes[parent].children, d)
	t.version++
	return nil
}

// reachable reports whether to can be reached from from by child edges.
func (t *Taxonomy) reachable(from, to Topic) bool {
	if from == to {
		return true
	}
	stack := []Topic{from}
	seen := map[Topic]bool{from: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.nodes[cur].children {
			if c == to {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// Lookup resolves a qualified name (including the root name) to a topic.
func (t *Taxonomy) Lookup(qualified string) (Topic, bool) {
	d, ok := t.byPath[qualified]
	return d, ok
}

// Child returns the direct child of parent with the given local name.
func (t *Taxonomy) Child(parent Topic, name string) (Topic, bool) {
	if !t.valid(parent) {
		return None, false
	}
	for _, c := range t.nodes[parent].children {
		if t.nodes[c].name == name && t.nodes[c].parents[0] == parent {
			return c, true
		}
	}
	return None, false
}

// Parent returns the primary parent of d, or None for the root.
func (t *Taxonomy) Parent(d Topic) Topic {
	if !t.valid(d) || d == Root {
		return None
	}
	return t.nodes[d].parents[0]
}

// Parents returns all parents (primary first). The returned slice must not
// be modified.
func (t *Taxonomy) Parents(d Topic) []Topic {
	if !t.valid(d) {
		return nil
	}
	return t.nodes[d].parents
}

// Children returns the direct subtopics of d. The returned slice must not
// be modified.
func (t *Taxonomy) Children(d Topic) []Topic {
	if !t.valid(d) {
		return nil
	}
	return t.nodes[d].children
}

// IsLeaf reports whether d has zero outdegree, i.e. is a most specific
// category (§3.1).
func (t *Taxonomy) IsLeaf(d Topic) bool {
	return t.valid(d) && len(t.nodes[d].children) == 0
}

// Siblings returns the number of d's siblings under its primary parent,
// the sib(p) of Eq. 3. The root has zero siblings.
func (t *Taxonomy) Siblings(d Topic) int {
	if !t.valid(d) || d == Root {
		return 0
	}
	p := t.nodes[d].parents[0]
	n := 0
	for _, c := range t.nodes[p].children {
		if c != d && t.nodes[c].parents[0] == p {
			n++
		}
	}
	return n
}

// PrimaryPath returns the path (p0, p1, ..., pq) from the top element
// p0 = ⊤ to pq = d along primary parents, as used by Eq. 3.
func (t *Taxonomy) PrimaryPath(d Topic) []Topic {
	if !t.valid(d) {
		return nil
	}
	var rev []Topic
	for cur := d; cur != None; cur = t.Parent(cur) {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Depth returns the number of edges on the primary path from the root to d.
func (t *Taxonomy) Depth(d Topic) int {
	n := 0
	for cur := d; cur != None && cur != Root; cur = t.Parent(cur) {
		n++
	}
	return n
}

// Ancestors returns the set of all topics reachable from d by parent edges
// (primary and secondary), excluding d itself, in no particular order.
func (t *Taxonomy) Ancestors(d Topic) []Topic {
	if !t.valid(d) {
		return nil
	}
	seen := map[Topic]bool{}
	stack := append([]Topic(nil), t.nodes[d].parents...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, t.nodes[cur].parents...)
	}
	out := make([]Topic, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LCA returns the lowest common ancestor of a and b along primary paths.
func (t *Taxonomy) LCA(a, b Topic) Topic {
	if !t.valid(a) || !t.valid(b) {
		return None
	}
	pa, pb := t.PrimaryPath(a), t.PrimaryPath(b)
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	lca := Root
	for i := 0; i < n && pa[i] == pb[i]; i++ {
		lca = pa[i]
	}
	return lca
}

// WuPalmer returns the Wu-Palmer similarity of two topics along primary
// paths: 2·depth(LCA) / (depth(a)+depth(b)), in [0,1]. Identical topics
// score 1; topics sharing only the root score 0. Used for taxonomy-driven
// diversity measures over recommendation lists.
func (t *Taxonomy) WuPalmer(a, b Topic) float64 {
	if !t.valid(a) || !t.valid(b) {
		return 0
	}
	if a == b && a == Root {
		return 1
	}
	da, db := t.Depth(a), t.Depth(b)
	if da+db == 0 {
		return 0
	}
	return 2 * float64(t.Depth(t.LCA(a, b))) / float64(da+db)
}

// Leaves returns all leaf topics in handle order.
func (t *Taxonomy) Leaves() []Topic {
	var out []Topic
	for i := range t.nodes {
		if len(t.nodes[i].children) == 0 {
			out = append(out, Topic(i))
		}
	}
	return out
}

// Topics returns all topic handles in creation order, starting with Root.
func (t *Taxonomy) Topics() []Topic {
	out := make([]Topic, len(t.nodes))
	for i := range out {
		out[i] = Topic(i)
	}
	return out
}

// Walk visits every topic in a depth-first pre-order over primary-child
// edges, calling fn with the topic and its depth. Walk stops early if fn
// returns false.
func (t *Taxonomy) Walk(fn func(d Topic, depth int) bool) {
	type frame struct {
		d     Topic
		depth int
	}
	stack := []frame{{Root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(f.d, f.depth) {
			return
		}
		kids := t.nodes[f.d].children
		for i := len(kids) - 1; i >= 0; i-- {
			c := kids[i]
			if t.nodes[c].parents[0] == f.d { // primary edge only
				stack = append(stack, frame{c, f.depth + 1})
			}
		}
	}
}

// Stats summarizes taxonomy shape; experiment E8 uses it to contrast the
// deep book taxonomy with the broader, shallower DVD taxonomy (§6).
type Stats struct {
	Topics      int     // total number of topics
	Leaves      int     // number of leaf topics
	MaxDepth    int     // deepest primary path length
	MeanDepth   float64 // mean leaf depth
	MeanOutdeg  float64 // mean children per inner topic
	InnerTopics int     // topics with outdegree > 0
}

// ComputeStats walks the taxonomy and returns its shape statistics.
func (t *Taxonomy) ComputeStats() Stats {
	s := Stats{Topics: len(t.nodes)}
	var leafDepthSum, childSum int
	t.Walk(func(d Topic, depth int) bool {
		if t.IsLeaf(d) {
			s.Leaves++
			leafDepthSum += depth
			if depth > s.MaxDepth {
				s.MaxDepth = depth
			}
		} else {
			s.InnerTopics++
			childSum += len(t.nodes[d].children)
		}
		return true
	})
	if s.Leaves > 0 {
		s.MeanDepth = float64(leafDepthSum) / float64(s.Leaves)
	}
	if s.InnerTopics > 0 {
		s.MeanOutdeg = float64(childSum) / float64(s.InnerTopics)
	}
	return s
}
