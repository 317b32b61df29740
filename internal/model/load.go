package model

import "fmt"

// LoadTrust installs a whole row as the trust function of the agent with
// ordinal src: dst[i] is a target's ordinal and val[i] the value stated
// about it. It is the bulk form of one SetTrust per entry (a later entry
// about the same target wins) for a loader whose rows are already keyed
// by ordinal: the map is sized to the row, and a row that arrives in
// TrustedPeers order — a serialized community's does — becomes the
// memoized view as it stands, so nothing is sorted on first use. It
// rejects what SetTrust rejects, plus ordinals outside the community, and
// then leaves the agent as it was.
//
// LoadTrust may run concurrently with LoadRatings — one goroutine calling
// each — once every agent and product is registered and every agent
// record is owned by this generation (AddAgent leaves the record it
// returns so; a Clone's records stay shared until written). Neither then
// registers or copies a record, and they write disjoint fields: Trust and
// peersMemo against Ratings, ratingsMemo and posMemo. No other mutator
// may run meanwhile.
func (c *Community) LoadTrust(src int32, dst []int32, val []float64) error {
	id, err := c.agentAt(src)
	if err != nil {
		return err
	}
	trust := make(map[AgentID]float64, len(dst))
	row := make([]TrustStatement, len(dst))
	sorted := true
	for i, d := range dst {
		peer, err := c.agentAt(d)
		if err != nil {
			return err
		}
		if d == src {
			return fmt.Errorf("%w: %s", ErrSelfTrust, id)
		}
		if !InRange(val[i]) {
			return fmt.Errorf("%w: trust(%s,%s) = %v", ErrValueRange, id, peer, val[i])
		}
		row[i] = TrustStatement{Src: id, Dst: peer, Value: val[i]}
		trust[peer] = val[i]
		sorted = sorted && (i == 0 || compareTrust(row[i-1], row[i]) < 0)
	}
	a := c.ownAgent(src)
	a.Trust = trust
	if sorted && len(trust) == len(row) { // in order, and no target stated twice
		a.peersMemo.Store(&row)
	} else {
		a.peersMemo.Store(nil)
	}
	return nil
}

// LoadRatings installs a whole row as the rating function of the agent
// with the given ordinal: prod[i] is a product's ordinal and val[i] its
// rating. It is to SetRating what LoadTrust is to SetTrust; a row in
// RatedProducts order also yields the PositiveRatings view, whose product
// ordinals the row already carries. It may run beside LoadTrust; see
// there.
func (c *Community) LoadRatings(agent int32, prod []int32, val []float64) error {
	id, err := c.agentAt(agent)
	if err != nil {
		return err
	}
	ratings := make(map[ProductID]float64, len(prod))
	row := make([]RatingStatement, len(prod))
	sorted, positives := true, 0
	for i, p := range prod {
		if p < 0 || int(p) >= len(c.prodIDs) {
			return fmt.Errorf("%w: ordinal %d", ErrUnknownProduct, p)
		}
		pid := c.prodIDs[p]
		if !InRange(val[i]) {
			return fmt.Errorf("%w: rating(%s,%s) = %v", ErrValueRange, id, pid, val[i])
		}
		row[i] = RatingStatement{Agent: id, Product: pid, Value: val[i]}
		ratings[pid] = val[i]
		sorted = sorted && (i == 0 || compareRating(row[i-1], row[i]) < 0)
		if val[i] > 0 {
			positives++
		}
	}
	a := c.ownAgent(agent)
	a.Ratings = ratings
	if sorted && len(ratings) == len(row) {
		pos := make([]PositiveRating, positives) // a prefix of the sorted row
		for i := range pos {
			pos[i] = PositiveRating{Ord: prod[i], Value: val[i]}
		}
		a.ratingsMemo.Store(&row)
		a.posMemo.Store(&pos)
	} else {
		a.ratingsMemo.Store(nil)
		a.posMemo.Store(nil)
	}
	return nil
}

// agentAt resolves an agent ordinal a loader was handed.
func (c *Community) agentAt(ord int32) (AgentID, error) {
	if ord < 0 || int(ord) >= len(c.agentIDs) {
		return "", fmt.Errorf("%w: ordinal %d", ErrUnknownAgent, ord)
	}
	return c.agentIDs[ord], nil
}
