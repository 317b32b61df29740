// Package consumer exercises snapshotfreeze from outside the builder
// allow-list: writes through published values must be reported, writes
// through locally built values must not.
package consumer

import (
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profmat"
)

// Poison writes through a published snapshot in every shape the
// analyzer knows: mutator method, map write, field write, inc/dec,
// builtin delete.
func Poison(snap *engine.Snapshot, id model.AgentID, p model.ProductID) {
	snap.Comm.SetTrust(id, id, 1) // want `SetTrust mutates frozen swrec/internal/model\.Community`
	a := snap.Comm.Agent(id)
	a.Ratings[p] = 5     // want `write through frozen swrec/internal/model\.Agent`
	a.Norm++             // want `write through frozen swrec/internal/model\.Agent`
	a.MarkDirty()        // want `MarkDirty mutates frozen swrec/internal/model\.Agent`
	delete(a.Ratings, p) // want `delete mutates frozen swrec/internal/model\.Agent`
	delete(a.Trust, id)  // want `delete mutates frozen swrec/internal/model\.Agent`
}

// Scribble writes a compiled matrix row in place.
func Scribble(m *profmat.Matrix, i int) {
	m.Rows[i].Norm = 0 // want `write through frozen swrec/internal/profmat\.Row`
}

// Reweigh edits a compiled adjacency's trust arena in place — the walks
// of every concurrent request read it.
func Reweigh(adj *model.Adjacency, k int) {
	adj.Trust().Val[k] = 0 // want `write through frozen swrec/internal/model\.CSR`
}

// Fresh builds its own community: the whole function is the
// pre-publication phase and must stay silent.
func Fresh(id model.AgentID, p model.ProductID) *model.Community {
	c := model.NewCommunity()
	c.SetTrust(id, id, 1)
	a := c.Agent(id)
	a.Ratings[p] = 5
	a.MarkDirty()
	lit := &model.Agent{ID: id, Ratings: map[model.ProductID]float64{}}
	lit.Ratings[p] = 1
	c.AddAgent(id).Norm = lit.Ratings[p]
	return c
}

// newWeighted is a tuple-returning constructor shape.
func newWeighted() (*model.Community, error) { return model.NewCommunity(), nil }

// FreshTuple builds via a tuple-returning constructor — silent: the
// single RHS classifies every LHS.
func FreshTuple(id model.AgentID) {
	c, err := newWeighted()
	if err != nil {
		return
	}
	c.SetTrust(id, id, 1)
}

// CloneAndEdit takes the sanctioned route: derive the next generation,
// then write it through its own setters — they copy a shared record
// before its first write — or through a record AddAgent handed out.
func CloneAndEdit(snap *engine.Snapshot, id model.AgentID, p model.ProductID) *model.Community {
	c := snap.Comm.Clone()
	c.SetTrust(id, id, 0.5)
	own := c.AddAgent(id)
	own.Ratings[p] = 1
	own.MarkDirty()
	alias := c
	alias.SetTrust(id, id, 0.25)
	return c
}

// CloneAndPoke writes through records merely read from a clone: the
// clone shares them with the published snapshot, so each of these lands
// in the epoch concurrent readers hold.
func CloneAndPoke(snap *engine.Snapshot, id model.AgentID, p model.ProductID) *model.Community {
	c := snap.Comm.Clone()
	c.Agent(id).Ratings[p] = 1 // want `write through frozen swrec/internal/model\.Agent`
	a := c.Agent(id)
	a.Ratings[p] = 2     // want `write through frozen swrec/internal/model\.Agent`
	a.Norm = 0           // want `write through frozen swrec/internal/model\.Agent`
	a.MarkDirty()        // want `MarkDirty mutates frozen swrec/internal/model\.Agent`
	delete(a.Ratings, p) // want `delete mutates frozen swrec/internal/model\.Agent`
	return c
}

// Rebind only rebinds local variables — never a mutation.
func Rebind(snap *engine.Snapshot, id model.AgentID) {
	a := snap.Comm.Agent(id)
	a = nil
	_ = a
	snap = nil
	_ = snap
}

// Holdout is the mutate-and-restore pattern: the justified suppression
// silences it, the unjustified one right below stays visible.
func Holdout(snap *engine.Snapshot, id model.AgentID, p model.ProductID, v float64) {
	a := snap.Comm.Agent(id)
	a.Ratings[p] = v //nolint:snapshotfreeze -- fixture: single-threaded holdout harness restores the rating before anyone else reads
	// No "-- reason" clause: inert, the diagnostic keeps firing.
	//nolint:snapshotfreeze
	a.Norm = 0 // want `write through frozen swrec/internal/model\.Agent`
}
