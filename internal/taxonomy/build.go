package taxonomy

import (
	"fmt"
	"strings"
)

// Build constructs in one pass the taxonomy that New(rootName) followed
// by Add(parents[i], names[i]) for i = 0, 1, ... would: topic i+1 is named
// names[i] under primary parent parents[i]. It is the loader for a
// serialized tree — every node known up front — and enforces exactly what
// the replay enforces: a parent is an earlier topic, a name is non-empty
// and "/"-free, and no two topics share a qualified name. Like Add, it
// extends the parent's qualified name by one segment and keeps it;
// children lists and primary-parent cells are cut from two arenas sized
// by a counting pass. Extra (secondary) parents are still added with
// AddEdge afterwards.
//
// When several nodes are at fault the error names the first bad parent or
// name, else the first duplicate; a replay would name whichever fault
// comes first in node order.
func Build(rootName string, names []string, parents []Topic) (*Taxonomy, error) {
	if len(names) != len(parents) {
		return nil, fmt.Errorf("taxonomy: %d names for %d parents", len(names), len(parents))
	}
	n := len(names)
	// fanout[p] counts p's children.
	fanout := make([]int32, n+1)
	for i, p := range parents {
		if p < 0 || int(p) > i { // topic i+1 may hang under 0..i
			return nil, fmt.Errorf("%w: parent %d", ErrUnknownTopic, p)
		}
		if names[i] == "" || strings.Contains(names[i], "/") {
			return nil, fmt.Errorf("taxonomy: invalid topic name %q", names[i])
		}
		fanout[p]++
	}

	t := &Taxonomy{
		nodes:   make([]node, n+1),
		qnames:  make([]string, n+1),
		byPath:  make(map[string]Topic, n+1),
		version: uint64(n), // one bump per Add
	}
	// Full slice expressions: a later AddEdge append must reallocate, not
	// run into the neighbour's cells.
	childArena := make([]Topic, n)
	parentArena := make([]Topic, n)
	off := int32(0)
	for p, k := range fanout {
		if k > 0 { // a leaf's list stays nil, as Add leaves it
			t.nodes[p].children = childArena[off : off : off+k]
			off += k
		}
	}
	t.qnames[Root] = rootName
	t.nodes[Root].name = rootName
	t.byPath[rootName] = Root
	for i, p := range parents {
		d := Topic(i + 1)
		qname := t.qnames[p] + "/" + names[i]
		if _, ok := t.byPath[qname]; ok {
			return nil, fmt.Errorf("%w: %s", ErrDuplicate, qname)
		}
		t.qnames[d] = qname
		t.byPath[qname] = d
		parentArena[i] = p
		t.nodes[d].name = names[i]
		t.nodes[d].parents = parentArena[i : i+1 : i+1]
		t.nodes[p].children = append(t.nodes[p].children, d)
	}
	return t, nil
}
