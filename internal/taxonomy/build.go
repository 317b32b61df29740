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
// extends the parent's qualified name by one segment and keeps it. It
// allocates per table, not per topic: every qualified name is a
// substring of one string, each topic's name the last segment of its
// own, and children lists and primary-parent cells are cut from two
// arenas sized by a counting pass. Extra (secondary) parents are still
// added with AddEdge afterwards.
//
// When several nodes are at fault the error names the first bad parent or
// name, else the first duplicate; a replay would name whichever fault
// comes first in node order.
func Build(rootName string, names []string, parents []Topic) (*Taxonomy, error) {
	if len(names) != len(parents) {
		return nil, fmt.Errorf("taxonomy: %d names for %d parents", len(names), len(parents))
	}
	n := len(names)
	// fanout[p] counts p's children; qlen[d] is d's qualified name's length.
	fanout := make([]int32, n+1)
	qlen := make([]int, n+1)
	qlen[Root] = len(rootName)
	total := qlen[Root]
	for i, p := range parents {
		if p < 0 || int(p) > i { // topic i+1 may hang under 0..i
			return nil, fmt.Errorf("%w: parent %d", ErrUnknownTopic, p)
		}
		if names[i] == "" || strings.Contains(names[i], "/") {
			return nil, fmt.Errorf("taxonomy: invalid topic name %q", names[i])
		}
		fanout[p]++
		qlen[i+1] = qlen[p] + 1 + len(names[i])
		total += qlen[i+1]
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
	// The names are written into one builder grown to their total up
	// front, so it never moves: each String() is a view of the same bytes,
	// and a qualified name written earlier stays valid as later ones are
	// appended after it.
	var qnames strings.Builder
	qnames.Grow(total)
	qnames.WriteString(rootName)
	t.qnames[Root] = qnames.String()
	t.nodes[Root].name = t.qnames[Root]
	t.byPath[t.qnames[Root]] = Root
	for i, p := range parents {
		d := Topic(i + 1)
		at := qnames.Len()
		qnames.WriteString(t.qnames[p])
		qnames.WriteByte('/')
		qnames.WriteString(names[i])
		qname := qnames.String()[at:]
		t.qnames[d] = qname
		t.byPath[qname] = d
		parentArena[i] = p
		t.nodes[d].name = qname[len(qname)-len(names[i]):]
		t.nodes[d].parents = parentArena[i : i+1 : i+1]
		t.nodes[p].children = append(t.nodes[p].children, d)
	}
	if len(t.byPath) != n+1 {
		return nil, firstDuplicate(t.qnames)
	}
	return t, nil
}

// firstDuplicate names the first qualified name, in topic order, that an
// earlier topic already holds.
func firstDuplicate(qnames []string) error {
	seen := make(map[string]bool, len(qnames))
	for _, q := range qnames {
		if seen[q] {
			return fmt.Errorf("%w: %s", ErrDuplicate, q)
		}
		seen[q] = true
	}
	return nil
}
