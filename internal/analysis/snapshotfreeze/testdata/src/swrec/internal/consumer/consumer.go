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
// analyzer knows: mutator method, row-element write, field write,
// inc/dec.
func Poison(snap *engine.Snapshot, id model.AgentID) {
	snap.Comm.SetTrust(id, id, 1) // want `SetTrust mutates frozen swrec/internal/model\.Community`
	a := snap.Comm.Agent(id)
	a.TrustedPeers()[0].Val = 5 // want `write through frozen swrec/internal/model\.Row`
	a.Norm++                    // want `write through frozen swrec/internal/model\.Agent`
	a.Name = "x"                // want `write through frozen swrec/internal/model\.Agent`
}

// Scribble writes a compiled matrix row in place.
func Scribble(m *profmat.Matrix, i int) {
	m.Rows[i].Norm = 0 // want `write through frozen swrec/internal/profmat\.Row`
}

// Reweigh edits a trust row in place through the adjacency — the walks
// of every concurrent request read it.
func Reweigh(adj *model.Adjacency, id model.AgentID, k int) {
	adj.Trust(id)[k].Val = 0 // want `write through frozen swrec/internal/model\.Row`
}

// Fresh builds its own community: the whole function is the
// pre-publication phase and must stay silent.
func Fresh(id model.AgentID) *model.Community {
	c := model.NewCommunity()
	c.SetTrust(id, id, 1)
	a := c.Agent(id)
	a.TrustedPeers()[0].Val = 5
	a.Norm = 1
	lit := &model.Agent{ID: id}
	lit.Norm = 1
	c.AddAgent(id).Norm = lit.Norm
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
func CloneAndEdit(snap *engine.Snapshot, id model.AgentID) *model.Community {
	c := snap.Comm.Clone()
	c.SetTrust(id, id, 0.5)
	own := c.AddAgent(id)
	own.Name = "renamed"
	own.Norm = 1
	alias := c
	alias.SetTrust(id, id, 0.25)
	return c
}

// CloneAndPoke writes through records merely read from a clone: the
// clone shares them with the published snapshot, so each of these lands
// in the epoch concurrent readers hold.
func CloneAndPoke(snap *engine.Snapshot, id model.AgentID) *model.Community {
	c := snap.Comm.Clone()
	c.Agent(id).Name = "x" // want `write through frozen swrec/internal/model\.Agent`
	a := c.Agent(id)
	a.TrustedPeers()[0].Val = 2 // want `write through frozen swrec/internal/model\.Row`
	a.Norm = 0                  // want `write through frozen swrec/internal/model\.Agent`
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

// Justified is an excused write: the justified suppression silences
// it, the unjustified one right below stays visible.
func Justified(snap *engine.Snapshot, id model.AgentID, v float64) {
	a := snap.Comm.Agent(id)
	a.Norm = v //nolint:snapshotfreeze -- fixture: a single-threaded harness restores the value before anyone else reads
	// No "-- reason" clause: inert, the diagnostic keeps firing.
	//nolint:snapshotfreeze
	a.Norm = 0 // want `write through frozen swrec/internal/model\.Agent`
}
