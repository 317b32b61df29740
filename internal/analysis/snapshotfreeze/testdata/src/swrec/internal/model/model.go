// Package model is a fixture stub: path-based type identity makes it
// stand in for the real swrec/internal/model.
package model

// AgentID is a URI-shaped agent key.
type AgentID string

// ProductID is a URI-shaped product key.
type ProductID string

// Entry mirrors one statement of a row.
type Entry struct {
	Ord int32
	Val float64
}

// Row mirrors a statement row: targets by ordinal, and their values.
type Row []Entry

// Agent mirrors the real agent: exported fields, statements in rows
// only the community's setters write.
type Agent struct {
	ID    AgentID
	Name  string
	Norm  float64
	trust Row
}

// TrustedPeers returns the agent's trust row.
func (a *Agent) TrustedPeers() Row { return a.trust }

// Community is the published graph.
type Community struct {
	agents map[AgentID]*Agent
}

// NewCommunity builds an empty community.
func NewCommunity() *Community {
	return &Community{agents: make(map[AgentID]*Agent)}
}

// Agent returns the agent for id, creating it on demand.
func (c *Community) Agent(id AgentID) *Agent {
	a := c.agents[id]
	if a == nil {
		a = &Agent{ID: id}
		c.agents[id] = a
	}
	return a
}

// AddAgent registers id if needed and returns its record, owned by this
// generation.
func (c *Community) AddAgent(id AgentID) *Agent { return c.Agent(id) }

// SetTrust sets a trust edge.
func (c *Community) SetTrust(from, to AgentID, w float64) {
	a := c.Agent(from)
	a.trust = append(a.trust, Entry{Val: w})
}

// Clone derives the next generation: in the real model it shares every
// record with c until one of its setters writes to it.
func (c *Community) Clone() *Community {
	out := NewCommunity()
	for id, a := range c.agents {
		cp := *a
		out.agents[id] = &cp
	}
	return out
}

// Adjacency mirrors the adjacency: the agents' rows by ordinal, read
// by everyone, written by no one.
type Adjacency struct {
	c *Community
}

// Trust returns an agent's trust row.
func (a *Adjacency) Trust(id AgentID) Row { return a.c.Agent(id).trust }
