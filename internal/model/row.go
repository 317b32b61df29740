package model

import "slices"

// Entry is one statement of a row: the target's ordinal (an agent's or a
// product's) and the value stated about it.
type Entry struct {
	Ord int32
	Val float64
}

// Row is one agent's statements of one relation — its partial trust
// function over agents, or its partial rating function over products
// (§3.1) — in served order: descending value, ties by the target's URI,
// so positive statements form a prefix. A target appears at most once,
// and an absent one is ⊥.
//
// Targets are named by ordinal, and ordinals never change along a clone
// lineage, so a row is valid in every generation sharing its record:
// resolve names with Symbols against the generation being read. A Row
// read from a record may be shared with other generations and must not
// be written.
type Row []Entry

// Find returns the value stated about the target with ordinal o; ok is
// false when it is ⊥.
func (r Row) Find(o int32) (v float64, ok bool) {
	for _, e := range r {
		if e.Ord == o {
			return e.Val, true
		}
	}
	return 0, false
}

// Positive returns the prefix of positive statements.
func (r Row) Positive() Row {
	k := 0
	for k < len(r) && r[k].Val > 0 {
		k++
	}
	return r[:k]
}

// Which of a record's rows it owns: a record copied from another
// generation shares its source's arrays until the first write to a
// relation copies that row.
const (
	ownTrust uint8 = 1 << iota
	ownRatings
)

// row returns the record's row of relation rel (ownTrust or
// ownRatings).
func (a *Agent) row(rel uint8) *Row {
	if rel == ownRatings {
		return &a.ratings
	}
	return &a.trust
}

// writable returns the record's row of relation rel, copied first — with
// room for one more entry — when the record does not own its array.
func (a *Agent) writable(rel uint8) *Row {
	r := a.row(rel)
	if a.own&rel == 0 {
		*r = append(make(Row, 0, len(*r)+1), *r...)
		a.own |= rel
	}
	return r
}

// set states v about target o, in order among ids (the relation's
// ordinal → URI table, which breaks value ties): an earlier statement
// about o is replaced.
func set[K ~string](r *Row, o int32, v float64, ids []K) {
	del(r, o)
	k := 0
	for k < len(*r) && ((*r)[k].Val > v || (*r)[k].Val == v && ids[(*r)[k].Ord] < ids[o]) {
		k++
	}
	*r = slices.Insert(*r, k, Entry{o, v})
}

// del retracts the statement about target o, if there is one.
func del(r *Row, o int32) {
	if k := slices.IndexFunc(*r, func(e Entry) bool { return e.Ord == o }); k >= 0 {
		*r = slices.Delete(*r, k, k+1)
	}
}

// inOrder reports whether r is in served order with no target stated
// twice: what a loader may adopt as it stands.
func inOrder[K ~string](r Row, ids []K) bool {
	for k := 1; k < len(r); k++ {
		if r[k-1].Val < r[k].Val || r[k-1].Val == r[k].Val && ids[r[k-1].Ord] >= ids[r[k].Ord] {
			return false
		}
	}
	if len(r) <= 16 {
		for k, e := range r {
			if slices.ContainsFunc(r[:k], func(x Entry) bool { return x.Ord == e.Ord }) {
				return false
			}
		}
		return true
	}
	ords := make([]int32, len(r))
	for k, e := range r {
		ords[k] = e.Ord
	}
	slices.Sort(ords)
	return len(slices.Compact(ords)) == len(r)
}
