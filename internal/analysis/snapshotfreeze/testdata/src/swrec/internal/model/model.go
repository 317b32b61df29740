// Package model is a fixture stub: path-based type identity makes it
// stand in for the real swrec/internal/model.
package model

// AgentID is a URI-shaped agent key.
type AgentID string

// ProductID is a URI-shaped product key.
type ProductID string

// Agent mirrors the real agent: exported trust and rating maps.
type Agent struct {
	ID      AgentID
	Trust   map[AgentID]float64
	Ratings map[ProductID]float64
	Norm    float64
	dirty   bool
}

// MarkDirty flags the agent for recompilation.
func (a *Agent) MarkDirty() { a.dirty = true }

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
		a = &Agent{ID: id, Trust: map[AgentID]float64{}, Ratings: map[ProductID]float64{}}
		c.agents[id] = a
	}
	return a
}

// AddAgent registers id if needed and returns its record, owned by this
// generation.
func (c *Community) AddAgent(id AgentID) *Agent { return c.Agent(id) }

// SetTrust sets a trust edge.
func (c *Community) SetTrust(from, to AgentID, w float64) {
	c.Agent(from).Trust[to] = w
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

// CSR mirrors the compiled adjacency's relation arenas.
type CSR struct {
	Off []int32
	Idx []int32
	Val []float64
}

// Adjacency mirrors the compiled adjacency: model compiles it, everyone
// else only reads it.
type Adjacency struct {
	trust CSR
}

// Trust returns the compiled trust relation.
func (a *Adjacency) Trust() *CSR { return &a.trust }
