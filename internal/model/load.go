package model

import (
	"fmt"
	"slices"
)

// LoadTrust installs a whole row as the trust function of the agent with
// ordinal src, each entry a target's ordinal and the value stated about
// it. It is the bulk form of one SetTrust per entry (a later entry about
// the same target wins) for a loader whose rows are already keyed by
// ordinal: a row in TrustedPeers order with no target stated twice — a
// serialized community's is — becomes the agent's row as it stands,
// array and all, so the caller must not write it afterwards. Any
// other row is installed entry by entry. It rejects what SetTrust
// rejects, plus ordinals outside the community, and then leaves the
// agent as it was.
//
// LoadTrust may run concurrently with LoadRatings — one goroutine calling
// each — once every agent and product is registered and every agent
// record is owned by this generation (AddAgent leaves the record it
// returns so; a Clone's records stay shared until written). Neither then
// registers or copies a record, and they write disjoint fields. No other
// mutator may run meanwhile.
func (c *Community) LoadTrust(src int32, r Row) error {
	id, err := c.agentAt(src)
	if err != nil {
		return err
	}
	for _, e := range r {
		peer, err := c.agentAt(e.Ord)
		if err != nil {
			return err
		}
		if e.Ord == src {
			return fmt.Errorf("%w: %s", ErrSelfTrust, id)
		}
		if !InRange(e.Val) {
			return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, id, peer, e.Val)
		}
	}
	load(c.ownAgent(src), ownTrust, r, c.agentIDs)
	return nil
}

// LoadRatings installs a whole row as the rating function of the agent
// with the given ordinal, each entry a product's ordinal and its rating.
// It is to SetRating what LoadTrust is to SetTrust, and may run beside
// LoadTrust; see there.
func (c *Community) LoadRatings(agent int32, r Row) error {
	id, err := c.agentAt(agent)
	if err != nil {
		return err
	}
	for _, e := range r {
		if e.Ord < 0 || int(e.Ord) >= len(c.prodIDs) {
			return fmt.Errorf("%w: ordinal %d", ErrUnknownProduct, e.Ord)
		}
		if !InRange(e.Val) {
			return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, id, c.prodIDs[e.Ord], e.Val)
		}
	}
	load(c.ownAgent(agent), ownRatings, r, c.prodIDs)
	return nil
}

// load replaces a's row of relation rel with the validated row in:
// adopted when it is in order, built entry by entry otherwise. It leaves
// a.own alone, so the two loaders write disjoint fields: a row it
// installs without the record owning it is copied at its first write.
func load[K ~string](a *Agent, rel uint8, in Row, ids []K) {
	r := a.row(rel)
	if inOrder(in, ids) {
		*r = slices.Clip(in)
		return
	}
	*r = nil
	for _, e := range in {
		set(r, e.Ord, e.Val, ids)
	}
}

// agentAt resolves an agent ordinal a loader was handed.
func (c *Community) agentAt(ord int32) (AgentID, error) {
	if ord < 0 || int(ord) >= len(c.agentIDs) {
		return "", fmt.Errorf("%w: ordinal %d", ErrUnknownAgent, ord)
	}
	return c.agentIDs[ord], nil
}
