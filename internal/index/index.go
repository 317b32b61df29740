// Package index provides the catalog-side lookup structure the
// information model implies but never names: the inverse of the
// descriptor assignment f: B → 2^D. Given a topic, it answers "which
// products fall into this category or any of its subtopics?" — the
// browse-by-branch operation behind catalog UIs, the NovelCategories
// recommendation scheme, and the API's /v1/topics endpoint.
//
// The index is one postings arena laid out in primary-tree preorder, so
// a branch's postings are one range of it. A subtree query marks that
// range in a bitset over product ranks (IDs in ascending order) and reads
// the set bits back: deduplicated and sorted, with no map, no recursion
// and no sort per call.
package index

import (
	"math/bits"
	"slices"

	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// TopicIndex maps taxonomy topics to the products carrying them as
// descriptors. Build once; concurrent reads are safe.
type TopicIndex struct {
	tax *taxonomy.Taxonomy
	// A topic's position is pos[d], its preorder number, with a taxonomy;
	// without one, its index in flat, the distinct descriptors sorted.
	pos   []int32
	flat  []taxonomy.Topic
	end   []int32           // position → one past the last position of its branch
	start []int32           // position → first arena offset; one more entry ends the arena
	arena []int32           // product ranks, cut by position, catalog order within one
	ids   []model.ProductID // rank → product ID, ascending
}

// Build scans the community's catalog into a fresh index. A product is
// posted once per descriptor it carries, in catalog order; a descriptor
// outside the taxonomy is never posted.
func Build(comm *model.Community) *TopicIndex {
	sym := comm.Symbols()
	ix := &TopicIndex{tax: comm.Taxonomy(), ids: slices.Clone(comm.Products())}
	slices.Sort(ix.ids)
	rank := make([]int32, len(ix.ids)) // catalog ordinal → rank
	for ord, id := range comm.Products() {
		r, _ := slices.BinarySearch(ix.ids, id)
		rank[ord] = int32(r)
	}
	if ix.tax != nil {
		ix.number()
	} else {
		for ord := range rank {
			ix.flat = append(ix.flat, sym.ProductAt(int32(ord)).Topics...)
		}
		slices.Sort(ix.flat)
		ix.flat = slices.Compact(ix.flat)
	}

	// A counting sort of the postings by position: count, sum, fill.
	postings := func(visit func(p int, r int32)) {
		for ord, r := range rank {
			for _, d := range sym.ProductAt(int32(ord)).Topics {
				if p, ok := ix.at(d); ok {
					visit(p, r)
				}
			}
		}
	}
	npos := len(ix.pos) + len(ix.flat)
	ix.start = make([]int32, npos+1)
	postings(func(p int, _ int32) { ix.start[p+1]++ })
	for p := range npos {
		ix.start[p+1] += ix.start[p]
	}
	ix.arena = make([]int32, ix.start[npos])
	next := slices.Clone(ix.start)
	postings(func(p int, r int32) {
		ix.arena[next[p]] = r
		next[p]++
	})
	return ix
}

// number assigns each topic its preorder position and each position the
// end of its branch. The walk keeps the branches still open, one per
// depth; a topic at depth k closes those at depth k and deeper.
func (ix *TopicIndex) number() {
	ix.pos = make([]int32, ix.tax.Len())
	ix.end = make([]int32, ix.tax.Len())
	var open []int32
	next := int32(0)
	ix.tax.Walk(func(d taxonomy.Topic, depth int) bool {
		for ; len(open) > depth; open = open[:len(open)-1] {
			ix.end[open[len(open)-1]] = next
		}
		ix.pos[d] = next
		open = append(open, next)
		next++
		return true
	})
	for _, p := range open {
		ix.end[p] = next
	}
}

// at returns d's position; ok is false for a descriptor that has none.
func (ix *TopicIndex) at(d taxonomy.Topic) (int, bool) {
	if ix.tax == nil {
		return slices.BinarySearch(ix.flat, d)
	}
	if d < 0 || int(d) >= len(ix.pos) {
		return 0, false
	}
	return int(ix.pos[d]), true
}

// Direct returns the products carrying d itself as a descriptor, in
// catalog order; nil when there are none.
func (ix *TopicIndex) Direct(d taxonomy.Topic) []model.ProductID {
	p, ok := ix.at(d)
	if !ok {
		return nil
	}
	var out []model.ProductID
	for _, r := range ix.arena[ix.start[p]:ix.start[p+1]] {
		out = append(out, ix.ids[r])
	}
	return out
}

// Subtree returns all products whose descriptors fall into d or any
// descendant of d (by primary-child edges), deduplicated and sorted by
// ID. Without a taxonomy there are no descendants: it is Direct(d).
func (ix *TopicIndex) Subtree(d taxonomy.Topic) []model.ProductID {
	if ix.tax == nil {
		return ix.Direct(d)
	}
	set, n := ix.mark(d)
	if n == 0 {
		return nil
	}
	out := make([]model.ProductID, 0, n)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, ix.ids[w<<6|bits.TrailingZeros64(word)])
		}
	}
	return out
}

// Count returns len(Subtree(d)) without materializing the list.
func (ix *TopicIndex) Count(d taxonomy.Topic) int {
	if ix.tax == nil {
		return len(ix.Direct(d))
	}
	_, n := ix.mark(d)
	return n
}

// mark returns the set of product ranks posted anywhere in d's branch,
// and its size.
func (ix *TopicIndex) mark(d taxonomy.Topic) ([]uint64, int) {
	p, ok := ix.at(d)
	if !ok {
		return nil, 0
	}
	set := make([]uint64, (len(ix.ids)+63)/64)
	for _, r := range ix.arena[ix.start[p]:ix.start[ix.end[p]]] {
		set[r>>6] |= 1 << (r & 63)
	}
	n := 0
	for _, word := range set {
		n += bits.OnesCount64(word)
	}
	return set, n
}
