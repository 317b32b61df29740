// Package engine is a fixture stub AND the builder-exemption proof:
// engine owns the pre-publication phase, so it mutates communities and
// snapshots freely with zero diagnostics expected in this file.
package engine

import "swrec/internal/model"

// Snapshot is the published epoch handle.
type Snapshot struct {
	Comm *model.Community
}

// Publish mutates its input while building — allowed: engine is in the
// builder allow-list.
func Publish(c *model.Community, id model.AgentID) *Snapshot {
	c.SetTrust(id, id, 1)
	a := c.Agent(id)
	a.Norm = 1
	a.TrustedPeers()[0].Val = 1
	s := &Snapshot{}
	s.Comm = c
	return s
}
